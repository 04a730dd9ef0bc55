package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
)

// sealFrame renders one wire frame (header + payload + CRC32C trailer) for
// tests that feed the decoder directly.
func sealFrame(payload []byte) []byte {
	var hdr, tr [4]byte
	frameSeal(&hdr, &tr, payload)
	out := append([]byte{}, hdr[:]...)
	out = append(out, payload...)
	return append(out, tr[:]...)
}

func TestReadFrameRoundTrip(t *testing.T) {
	pool := newBufPool()
	for _, payload := range [][]byte{{}, {7}, bytes.Repeat([]byte{0xa5}, 1000)} {
		buf, err := readFrame(bytes.NewReader(sealFrame(payload)), pool, maxFrameLen)
		if err != nil {
			t.Fatalf("valid frame of %d bytes rejected: %v", len(payload), err)
		}
		if !bytes.Equal(buf, payload) {
			t.Fatalf("payload mangled: got %d bytes", len(buf))
		}
		pool.release(buf)
	}
	if n := pool.outstanding(); n != 0 {
		t.Fatalf("round trips leaked %d buffers", n)
	}
}

func TestReadFrameDetectsEveryFlippedBit(t *testing.T) {
	pool := newBufPool()
	payload := []byte("the quick brown fox jumps over the lazy dog")
	frame := sealFrame(payload)
	for bit := 0; bit < len(frame)*8; bit++ {
		evil := append([]byte(nil), frame...)
		evil[bit/8] ^= 1 << uint(bit%8)
		buf, err := readFrame(bytes.NewReader(evil), pool, maxFrameLen)
		if err == nil {
			pool.release(buf)
			t.Fatalf("flipped bit %d went undetected", bit)
		}
		// A flip in the length field makes the stream short (truncation
		// surfaces as io.ErrUnexpectedEOF); any other flip must fail the
		// checksum.
		if bit >= 32 && !errors.Is(err, ErrCorrupt) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("flipped bit %d: unexpected error class %v", bit, err)
		}
	}
	if n := pool.outstanding(); n != 0 {
		t.Fatalf("rejects leaked %d buffers", n)
	}
}

func TestReadFrameRejectsOversizedLength(t *testing.T) {
	pool := newBufPool()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<30)
	_, err := readFrame(bytes.NewReader(hdr[:]), pool, maxFrameLen)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized length not rejected as corrupt: %v", err)
	}
	if n := pool.outstanding(); n != 0 {
		t.Fatalf("oversized reject leaked %d buffers", n)
	}
}

// TestTCPCorruptFrameSurfacesAsCorruptError writes a checksum-mangled frame
// straight onto the raw socket (below every decorator, exactly where real
// wire corruption lands) and asserts the receiver's next Recv reports a
// *CorruptError naming the sending peer.
func TestTCPCorruptFrameSurfacesAsCorruptError(t *testing.T) {
	ts, err := NewTCPGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer ts[0].Close()

	// A valid frame first: the link delivers clean traffic before the flip.
	if err := ts[0].Send(1, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := ts[1].Recv(0)
	if err != nil || string(got) != "hello" {
		t.Fatalf("clean frame: %q, %v", got, err)
	}
	ts[1].Release(got)

	frame := sealFrame([]byte("poisoned payload"))
	frame[len(frame)-1] ^= 0x40 // mangle the trailer
	raw := ts[0].(*tcpTransport).conns[1]
	if _, err := raw.Write(frame); err != nil {
		t.Fatal(err)
	}
	leaked, err := ts[1].Recv(0)
	if err == nil {
		ts[1].Release(leaked)
		t.Fatal("corrupt frame was delivered clean")
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("corrupt frame surfaced as %v, want *CorruptError", err)
	}
	if ce.Peer != 0 || ce.Op != "recv" {
		t.Fatalf("corrupt error misattributed: %+v", ce)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatal("CorruptError does not unwrap to ErrCorrupt")
	}
}

// TestWithIntegritySealsZeroCopySends covers the pooled-buffer path: a
// leased SendNoCopy buffer must arrive intact through seal/verify and the
// pool must balance once the receiver releases.
func TestWithIntegritySealsZeroCopySends(t *testing.T) {
	base, err := NewInprocGroup(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer base[0].Close()
	a, b := WithIntegrity(base[0]), WithIntegrity(base[1])

	buf := a.Lease(512)
	for i := range buf {
		buf[i] = byte(i)
	}
	want := append([]byte(nil), buf...)
	if err := a.SendNoCopy(1, buf); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv(0)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("sealed payload mangled: %v", err)
	}
	b.Release(got)
	if n := base[0].(interface{ Outstanding() int }).Outstanding(); n != 0 {
		t.Fatalf("seal/verify leaked %d buffers", n)
	}
}

func TestWithIntegrityRejectsTruncatedMessage(t *testing.T) {
	base, err := NewInprocGroup(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer base[0].Close()
	b := WithIntegrity(base[1])

	// An unsealed (too short to even hold a trailer) message from a peer
	// that skipped its integrity wrapper must fail cleanly, not over-read.
	if err := base[0].Send(1, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	buf, err := b.Recv(0)
	if err == nil {
		b.Release(buf)
		t.Fatal("truncated message was delivered clean")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated message surfaced as %v, want ErrCorrupt", err)
	}
}

// TestCRC32CKnownAnswer pins the checksum the frame codec and WithIntegrity
// share to the published CRC32C test vector, so a silent table swap (e.g.
// to IEEE) cannot pass as a refactor.
func TestCRC32CKnownAnswer(t *testing.T) {
	if got := crc32.Checksum([]byte("123456789"), crc32cTable); got != 0xe3069283 {
		t.Fatalf("CRC32C(123456789) = %#x, want 0xe3069283", got)
	}
}
