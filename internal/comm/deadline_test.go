package comm

import (
	"errors"
	"testing"
	"time"
)

// TestDeadlineRecvTimesOut: a receive with nothing inbound fails with a
// *DeadlineError naming the silent peer, on both native transports.
func TestDeadlineRecvTimesOut(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, ts []Transport) {
		d := WithDeadline(ts[0], 30*time.Millisecond)
		start := time.Now()
		_, err := d.Recv(1)
		if err == nil {
			t.Fatal("recv from a silent peer should time out")
		}
		var de *DeadlineError
		if !errors.As(err, &de) {
			t.Fatalf("expected *DeadlineError, got %T: %v", err, err)
		}
		if de.Peer != 1 || de.Op != "recv" {
			t.Fatalf("blamed op %q peer %d, want recv peer 1", de.Op, de.Peer)
		}
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("deadline error should unwrap to ErrDeadline: %v", err)
		}
		if waited := time.Since(start); waited > 2*time.Second {
			t.Fatalf("timeout took %v — deadline not enforced", waited)
		}

		// A message that is actually there passes straight through.
		if err := ts[1].Send(0, []byte("hi")); err != nil {
			t.Fatal(err)
		}
		got, err := d.Recv(1)
		if err != nil || string(got) != "hi" {
			t.Fatalf("healthy recv through the decorator: %q, %v", got, err)
		}
		d.Release(got)
	})
}

// TestDeadlineSendTimesOut: once internal buffering is exhausted and the
// peer consumes nothing, a bounded send blames the peer instead of blocking
// forever.
func TestDeadlineSendTimesOut(t *testing.T) {
	ts, err := NewInprocGroup(2, 1) // capacity 1: the second send must block
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, tr := range ts {
			tr.Close()
		}
	}()
	d := WithDeadline(ts[0], 30*time.Millisecond)
	if err := d.Send(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	err = d.Send(1, []byte("b"))
	var de *DeadlineError
	if !errors.As(err, &de) || de.Op != "send" || de.Peer != 1 {
		t.Fatalf("expected send DeadlineError for peer 1, got %v", err)
	}
}

// TestDeadlineCollectivesPassThrough: WithDeadline is transparent to a
// healthy ring all-reduce on both transports.
func TestDeadlineCollectivesPassThrough(t *testing.T) {
	const p, n = 3, 257
	forEachTransport(t, p, func(t *testing.T, ts []Transport) {
		for i := range ts {
			ts[i] = WithDeadline(ts[i], 2*time.Second)
		}
		inputs, want := makeInputs(p, n, 99)
		runGroup(t, ts, func(c *Communicator) error {
			buf := append([]float64(nil), inputs[c.Rank()]...)
			if err := c.AllReduceSum(buf); err != nil {
				return err
			}
			for i := range buf {
				if diff := buf[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
					t.Errorf("rank %d elem %d: got %g want %g", c.Rank(), i, buf[i], want[i])
					break
				}
			}
			return nil
		})
	})
}

// TestDeadlineFallbackRecv: an inner transport without native timeouts (any
// decorated stack) gets the helper-goroutine fallback — the timeout still
// fires, and a buffer that arrives after abandonment is released back to the
// pool rather than leaked.
func TestDeadlineFallbackRecv(t *testing.T) {
	ts, err := NewInprocGroup(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, tr := range ts {
			tr.Close()
		}
	}()
	// A chaos layer hides the native timeout methods, forcing the fallback.
	d := WithDeadline(WithChaos(ts[0], ChaosPlan{Delay: time.Nanosecond}), 30*time.Millisecond)
	if _, ok := d.(*deadlineTransport).Transport.(timeoutCapable); ok {
		t.Fatal("test premise broken: inner transport has native timeouts")
	}

	//acpvet:ignore this Recv must time out, so no buffer is ever leased to release
	_, err = d.Recv(1)
	var de *DeadlineError
	if !errors.As(err, &de) || de.Peer != 1 {
		t.Fatalf("fallback recv should produce a DeadlineError for peer 1, got %v", err)
	}

	// The abandoned helper is still blocked in the inner Recv. Deliver a
	// leased buffer late: the helper must release it back to the pool.
	buf := ts[1].Lease(8)
	if err := ts[1].SendNoCopy(0, buf); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for ts[0].(*inprocTransport).Outstanding() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("late buffer never released: %d outstanding", ts[0].(*inprocTransport).Outstanding())
		}
		time.Sleep(time.Millisecond)
	}

	// A message present before the deadline passes through the fallback.
	if err := ts[1].Send(0, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	got, err := d.Recv(1)
	if err != nil || string(got) != "ok" {
		t.Fatalf("healthy fallback recv: %q, %v", got, err)
	}
	d.Release(got)
}
