package comm

import (
	"errors"
	"fmt"
	"time"
)

// ErrDeadline is the sentinel wrapped by every DeadlineError; match it with
// errors.Is when the failed operation's identity does not matter.
var ErrDeadline = errors.New("comm: deadline exceeded")

// DeadlineError reports a point-to-point operation that made no progress
// inside its idle window. It names the peer, which is what makes the
// stuck-step watchdog work: a hung-but-heartbeating rank never produces an
// error of its own, so the only evidence against it is its peers' deadline
// errors, and the trainer expels the rank those errors blame. Extract with
// errors.As; Unwrap yields ErrDeadline.
type DeadlineError struct {
	Op   string // "send" or "recv"
	Peer int
	Idle time.Duration
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("comm: %s peer %d: no progress in %v: deadline exceeded", e.Op, e.Peer, e.Idle)
}

func (e *DeadlineError) Unwrap() error { return ErrDeadline }

// timeoutCapable is the optional fast path for WithDeadline: a transport
// whose blocking points are selects can add a timer case natively instead of
// paying a helper goroutine per operation. Both in-repo transports (inproc
// and TCP) implement it.
type timeoutCapable interface {
	RecvTimeout(from int, d time.Duration) ([]byte, error)
	SendTimeout(to int, data []byte, d time.Duration) error
}

// deadlineTransport decorates a Transport with per-operation idle deadlines.
type deadlineTransport struct {
	Transport
	idle time.Duration
	nat  timeoutCapable // non-nil when the inner transport has native timeouts
}

// WithDeadline wraps t so every Send, SendNoCopy and Recv fails with a
// *DeadlineError once it makes no progress for idle — the detection layer of
// the stuck-step watchdog. A non-positive idle returns t unchanged.
//
// Transports implementing native timeouts (both in-repo transports do) are
// decorated for free. For other stacks Recv falls back to a helper goroutine
// per call: on timeout the helper keeps waiting until the transport closes —
// a deadline error always precipitates a group abort, so the wait is bounded
// — and releases any late-arriving buffer back to the pool; Send has no
// generic fallback and passes through undecorated (the hang vector the
// watchdog exists for is the receive side).
//
// Ownership on a send timeout follows the failed-send rule: the buffer was
// not consumed and stays with the caller.
func WithDeadline(t Transport, idle time.Duration) Transport {
	if idle <= 0 {
		return t
	}
	d := &deadlineTransport{Transport: t, idle: idle}
	if nc, ok := t.(timeoutCapable); ok {
		d.nat = nc
	}
	return d
}

func (d *deadlineTransport) Send(to int, data []byte) error {
	if d.nat != nil {
		return d.nat.SendTimeout(to, data, d.idle)
	}
	return d.Transport.Send(to, data)
}

func (d *deadlineTransport) SendNoCopy(to int, buf []byte) error {
	// SendNoCopy and Send coincide on both native transports, so the native
	// timeout covers the zero-copy path too.
	if d.nat != nil {
		return d.nat.SendTimeout(to, buf, d.idle)
	}
	return d.Transport.SendNoCopy(to, buf)
}

func (d *deadlineTransport) Recv(from int) ([]byte, error) {
	if d.nat != nil {
		return d.nat.RecvTimeout(from, d.idle)
	}
	type result struct {
		data []byte
		err  error
	}
	// Unbuffered on purpose: the helper's send only completes while the
	// caller is still waiting, so a result can never be stranded in a
	// buffer nobody drains.
	ch := make(chan result)
	abandoned := make(chan struct{})
	go func() {
		data, err := d.Transport.Recv(from)
		select {
		case ch <- result{data, err}:
		case <-abandoned:
			if data != nil {
				d.Transport.Release(data)
			}
		}
	}()
	timer := time.NewTimer(d.idle)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.data, r.err
	case <-timer.C:
		close(abandoned)
		return nil, &DeadlineError{Op: "recv", Peer: from, Idle: d.idle}
	}
}

// RecvTimeout lets WithDeadline bound receives on an already-decorated
// inproc transport without a helper goroutine.
func (t *inprocTransport) RecvTimeout(from int, d time.Duration) ([]byte, error) {
	if err := t.checkPeer(from); err != nil {
		return nil, err
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case data := <-t.g.chans[from][t.rank]:
		return data, nil
	case <-t.g.done:
		// Drain any message that raced with close.
		select {
		case data := <-t.g.chans[from][t.rank]:
			return data, nil
		default:
		}
		return nil, ErrClosed
	case <-timer.C:
		return nil, &DeadlineError{Op: "recv", Peer: from, Idle: d}
	}
}

// SendTimeout bounds the (normally buffered, but finite) send on the inproc
// transport. On timeout the message was not consumed and stays owned by the
// caller.
func (t *inprocTransport) SendTimeout(to int, data []byte, d time.Duration) error {
	if err := t.checkPeer(to); err != nil {
		return err
	}
	select {
	case <-t.g.done:
		return ErrClosed
	default:
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case t.g.chans[t.rank][to] <- data:
		return nil
	case <-t.g.done:
		return ErrClosed
	case <-timer.C:
		return &DeadlineError{Op: "send", Peer: to, Idle: d}
	}
}

// RecvTimeout bounds a receive on the TCP transport's per-peer inbox.
func (t *tcpTransport) RecvTimeout(from int, d time.Duration) ([]byte, error) {
	if from < 0 || from >= t.size || from == t.rank {
		return nil, fmt.Errorf("comm: bad peer %d", from)
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case f := <-t.inbox[from]:
		return f.buf, f.err
	case <-t.closed:
		select {
		case f := <-t.inbox[from]:
			return f.buf, f.err
		default:
		}
		return nil, ErrClosed
	case <-timer.C:
		return nil, &DeadlineError{Op: "recv", Peer: from, Idle: d}
	}
}

// SendTimeout bounds the outbox enqueue on the TCP transport. A full outbox
// for longer than d means the writer goroutine (or the peer's reader) has
// stopped making progress. On timeout the message stays owned by the caller.
func (t *tcpTransport) SendTimeout(to int, data []byte, d time.Duration) error {
	if to < 0 || to >= t.size || to == t.rank {
		return fmt.Errorf("comm: bad peer %d", to)
	}
	select {
	case <-t.closed:
		return ErrClosed
	default:
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case t.outbox[to] <- data:
		return nil
	case <-t.closed:
		return ErrClosed
	case <-timer.C:
		return &DeadlineError{Op: "send", Peer: to, Idle: d}
	}
}
