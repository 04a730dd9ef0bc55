package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// ErrCorrupt is the sentinel wrapped by every CorruptError and by the TCP
// frame reader's checksum failures; match it with errors.Is when the failed
// operation's identity does not matter.
var ErrCorrupt = errors.New("comm: payload corrupt")

// CorruptError reports a payload whose integrity check failed. It names the
// peer the payload came from, which is what lets the elastic trainer turn a
// flipped bit into an expel: the receiving rank's error blames the sender,
// and recovery reports that member to the coordinator exactly as the
// stuck-step watchdog does for hangs. Extract with errors.As; Unwrap yields
// ErrCorrupt.
type CorruptError struct {
	Op   string // "send" or "recv"
	Peer int
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("comm: %s peer %d: payload corrupt", e.Op, e.Peer)
}

func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// integrityTransport seals every outgoing message with a CRC32C trailer and
// verifies it on receive, turning any bit flip between the two endpoints'
// decorators into a *CorruptError instead of silent gradient damage.
type integrityTransport struct {
	Transport
}

// WithIntegrity wraps t with end-to-end message checksums: Send/SendNoCopy
// append a CRC32C trailer, Recv verifies and strips it, failing with a
// *CorruptError naming the sender. The TCP transport already checksums each
// frame against socket-level corruption; this decorator covers everything
// above the transport — a WithChaos Flip layer stacked inside it, a buggy
// middleware, shared-memory scribbles on inproc — at the cost of one copy
// per send (sealing in place is unsafe: inproc delivers by reference and a
// retained buffer may be mid-send to several peers). Both endpoints of a
// link must be wrapped or every payload fails verification.
func WithIntegrity(t Transport) Transport {
	return &integrityTransport{Transport: t}
}

// seal leases a fresh buffer, appends the checksum trailer, and sends it.
// On failure the sealed copy is released and the caller keeps its buffer,
// per the failed-send ownership rule.
func (g *integrityTransport) seal(to int, data []byte) error {
	sealed := g.Transport.Lease(len(data) + frameTrailerLen)
	n := copy(sealed, data)
	binary.BigEndian.PutUint32(sealed[n:], crc32.Checksum(data, crc32cTable))
	if err := g.Transport.SendNoCopy(to, sealed); err != nil {
		g.Transport.Release(sealed)
		return err
	}
	return nil
}

func (g *integrityTransport) Send(to int, data []byte) error {
	return g.seal(to, data)
}

func (g *integrityTransport) SendNoCopy(to int, buf []byte) error {
	if err := g.seal(to, buf); err != nil {
		return err
	}
	// The sealed copy was consumed in the original's place; recycle the
	// caller's lease (a no-op for retained or caller-owned buffers).
	g.Transport.Release(buf)
	return nil
}

func (g *integrityTransport) Recv(from int) ([]byte, error) {
	buf, err := g.Transport.Recv(from)
	return g.verify(from, buf, err)
}

// verify checks and strips the checksum trailer of one received message.
// The truncation is a full-width reslice of the same backing array, so the
// receiver's eventual Release still recycles the lease.
func (g *integrityTransport) verify(from int, buf []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	n := len(buf) - frameTrailerLen
	if n < 0 || crc32.Checksum(buf[:n], crc32cTable) != binary.BigEndian.Uint32(buf[n:]) {
		g.Transport.Release(buf)
		return nil, &CorruptError{Op: "recv", Peer: from}
	}
	return buf[:n], nil
}
