package comm

import (
	"bytes"
	"errors"
	"math/bits"
	"slices"
	"testing"
	"time"
)

// closeAll closes every transport of a group.
func closeAll(ts []Transport) {
	for _, t := range ts {
		t.Close()
	}
}

// TestChaosPassthrough: a plan that injects nothing returns the transport
// unwrapped — no decorator overhead on the healthy path. After alone arms
// nothing.
func TestChaosPassthrough(t *testing.T) {
	ts, err := NewInprocGroup(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(ts)
	for _, plan := range []ChaosPlan{
		{},
		{Seed: 1},
		{After: 3},
		{Fail: -0.5, Flip: -0.5, Delay: -time.Second, Seed: 1},
	} {
		if got := WithChaos(ts[0], plan); got != ts[0] {
			t.Fatalf("plan %+v should return the transport unchanged", plan)
		}
	}
}

// failMask drives 64 ops through a transport wrapping rank 0 of a fresh
// inproc pair, cycling Send, SendNoCopy and Recv so every op kind draws from
// the fail stream, and returns the mask of ops that failed (bit i = op i).
func failMask(t *testing.T, wrap func(Transport) Transport) uint64 {
	t.Helper()
	ts, err := NewInprocGroup(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(ts)
	f := wrap(ts[0])
	var mask uint64
	queued := false // a message from rank 1 waits in rank 0's inbox
	for i := 0; i < 64; i++ {
		var err error
		switch i % 3 {
		case 0:
			err = f.Send(1, []byte{byte(i)})
		case 1:
			buf := f.Lease(4)
			if err = f.SendNoCopy(1, buf); err != nil {
				f.Release(buf)
			}
		case 2:
			if !queued {
				if err := ts[1].Send(0, []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
				queued = true
			}
			var data []byte
			if data, err = f.Recv(1); err == nil {
				queued = false
				f.Release(data)
			}
		}
		if err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("op %d: injected failure must wrap ErrInjected, got %v", i, err)
			}
			mask |= 1 << i
			continue
		}
		if i%3 != 2 {
			data, err := ts[1].Recv(0)
			if err != nil {
				t.Fatal(err)
			}
			ts[1].Release(data)
		}
	}
	return mask
}

// flipList sends 64 32-byte payloads through a transport wrapping rank 0 and
// returns the (send index, flipped bit) pair of every send that arrived
// altered.
func flipList(t *testing.T, wrap func(Transport) Transport) [][2]int {
	t.Helper()
	ts, err := NewInprocGroup(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(ts)
	snd := wrap(ts[0])
	payload := bytes.Repeat([]byte{0xff}, 32)
	var flips [][2]int
	for i := 0; i < 64; i++ {
		if err := snd.Send(1, payload); err != nil {
			t.Fatal(err)
		}
		got, err := ts[1].Recv(0)
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if d := got[j] ^ payload[j]; d != 0 {
				flips = append(flips, [2]int{i, j*8 + bits.TrailingZeros8(d)})
			}
		}
		ts[1].Release(got)
	}
	return flips
}

// TestChaosStreamsPinned pins the seeded chaos streams to literal values, so
// a refactor of the injection code cannot silently move where faults land
// (the corruption expel test depends on where its first flip falls). The
// determinism tests compare one run with another and would miss that.
func TestChaosStreamsPinned(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		want uint64
	}{
		{42, 0x4e8c0c446af039bb},
		{43, 0xc118b81100307a59},
	} {
		seed := tc.seed
		got := failMask(t, func(tr Transport) Transport { return WithChaos(tr, ChaosPlan{Fail: 0.4, Seed: seed}) })
		if got != tc.want {
			t.Errorf("fail 0.4 seed %d: mask %#016x, want %#016x", seed, got, tc.want)
		}
	}
	wantFlips := [][2]int{
		{0, 139}, {7, 54}, {10, 64}, {18, 92}, {19, 220}, {24, 203}, {25, 96},
		{26, 254}, {32, 239}, {45, 93}, {46, 20}, {47, 3}, {52, 20}, {59, 22},
	}
	gotFlips := flipList(t, func(tr Transport) Transport { return WithChaos(tr, ChaosPlan{Flip: 0.3, Seed: 1234}) })
	if !slices.Equal(gotFlips, wantFlips) {
		t.Errorf("flip 0.3 seed 1234: flips %v, want %v", gotFlips, wantFlips)
	}
}

// TestWithFlakyPassthrough: a non-positive Fail probability, the plan that
// replaces WithFlaky(t, p, seed) at p <= 0, returns the transport unwrapped.
func TestWithFlakyPassthrough(t *testing.T) {
	ts, err := NewInprocGroup(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(ts)
	if got := WithChaos(ts[0], ChaosPlan{Fail: 0, Seed: 1}); got != ts[0] {
		t.Fatal("Fail 0 should return the transport unchanged")
	}
	if got := WithChaos(ts[0], ChaosPlan{Fail: -0.5, Seed: 1}); got != ts[0] {
		t.Fatal("Fail < 0 should return the transport unchanged")
	}
}

// TestWithFlakyDeterminism: under a Fail plan the same seed yields the same
// failure pattern (reproducible chaos); a different seed yields a different
// one.
func TestWithFlakyDeterminism(t *testing.T) {
	flaky := func(seed int64) func(Transport) Transport {
		return func(tr Transport) Transport { return WithChaos(tr, ChaosPlan{Fail: 0.4, Seed: seed}) }
	}
	a, b, c := failMask(t, flaky(42)), failMask(t, flaky(42)), failMask(t, flaky(43))
	if a != b {
		t.Fatalf("same seed diverged: %#016x vs %#016x", a, b)
	}
	if a == 0 || a == ^uint64(0) {
		t.Fatalf("Fail 0.4 over 64 ops should mix failures and successes (mask %#016x)", a)
	}
	if a == c {
		t.Fatal("different seeds produced identical failure patterns")
	}
}

// TestWithCorruptDisabledPassthrough: a non-positive Flip probability, the
// plan that replaces WithCorrupt(t, p, seed) at p <= 0, returns the transport
// unwrapped.
func TestWithCorruptDisabledPassthrough(t *testing.T) {
	base, err := NewInprocGroup(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(base)
	if got := WithChaos(base[0], ChaosPlan{Flip: 0, Seed: 1}); got != base[0] {
		t.Fatal("Flip 0 should return the transport unchanged")
	}
	if got := WithChaos(base[0], ChaosPlan{Flip: -0.5, Seed: 1}); got != base[0] {
		t.Fatal("negative Flip should return the transport unchanged")
	}
}

// TestWithCorruptSeededDeterminism: under a Flip plan two runs with the same
// seed flip the same bits of the same sends, and the plan is not inert.
func TestWithCorruptSeededDeterminism(t *testing.T) {
	corrupt := func(tr Transport) Transport { return WithChaos(tr, ChaosPlan{Flip: 0.3, Seed: 1234}) }
	a, b := flipList(t, corrupt), flipList(t, corrupt)
	if !slices.Equal(a, b) {
		t.Fatalf("corruption stream not deterministic: %v vs %v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("Flip 0.3 over 64 sends flipped nothing; decorator inert")
	}
}

// TestChaosAfterCountsEveryOp: sends and receives share one op counter, so
// the first After ops (here two sends) pass and every later op, a receive
// included, fails with ErrInjected under Fail 1.
func TestChaosAfterCountsEveryOp(t *testing.T) {
	ts, err := NewInprocGroup(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(ts)
	f := WithChaos(ts[0], ChaosPlan{After: 2, Fail: 1})
	for i := 0; i < 2; i++ {
		if err := f.Send(1, []byte{byte(i)}); err != nil {
			t.Fatalf("op %d inside the budget failed: %v", i, err)
		}
		data, err := ts[1].Recv(0)
		if err != nil {
			t.Fatal(err)
		}
		ts[1].Release(data)
	}
	for i := 0; i < 3; i++ {
		//acpvet:ignore an armed Fail 1 Recv never returns a buffer
		if _, err := f.Recv(1); !errors.Is(err, ErrInjected) {
			t.Fatalf("armed op %d: want injected failure, got %v", i, err)
		}
	}
}

// TestChaosFailLeaseOwnership: a failed SendNoCopy leaves the lease with the
// caller — releasing it must bring the pool back to zero outstanding, per the
// Transport ownership contract the decorator must not break.
func TestChaosFailLeaseOwnership(t *testing.T) {
	ts, err := NewInprocGroup(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(ts)
	f := WithChaos(ts[0], ChaosPlan{Fail: 1, Seed: 7}) // every op fails
	acct := ts[0].(leaseAccountant)

	buf := f.Lease(64)
	if err := f.SendNoCopy(1, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected failure, got %v", err)
	}
	// Ownership stayed with the caller; release must fully recycle.
	f.Release(buf)
	if n := acct.Outstanding(); n != 0 {
		t.Fatalf("%d buffers outstanding after releasing a failed SendNoCopy", n)
	}
}

// TestChaosFailedRecvConsumesNothing: a failed Recv drops nothing — the
// queued message is still delivered by the next Recv on the inner transport.
func TestChaosFailedRecvConsumesNothing(t *testing.T) {
	ts, err := NewInprocGroup(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(ts)
	if err := ts[0].Send(1, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	f := WithChaos(ts[1], ChaosPlan{Fail: 1, Seed: 9})
	//acpvet:ignore a Fail 1 Recv never returns a buffer
	if _, err := f.Recv(0); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected recv failure, got %v", err)
	}
	data, err := ts[1].Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "payload" {
		t.Fatalf("message lost across failed recv: %q", data)
	}
	ts[1].Release(data)
}

// TestChaosStall: the scripted hung rank. The first After ops pass, later
// ones wedge without erroring, and closing the transport (what a group abort
// does) unblocks them with ErrClosed — chaos that can always be torn down.
func TestChaosStall(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, ts []Transport) {
		s := WithChaos(ts[0], ChaosPlan{After: 1, Stall: true})
		if err := s.Send(1, []byte("first")); err != nil {
			t.Fatalf("op inside the budget should pass: %v", err)
		}
		got, err := ts[1].Recv(0)
		if err != nil || string(got) != "first" {
			t.Fatalf("pass-through op not delivered: %q, %v", got, err)
		}
		ts[1].Release(got)

		errc := make(chan error, 1)
		go func() { errc <- s.Send(1, []byte("stalls")) }()
		select {
		case err := <-errc:
			t.Fatalf("op past the budget returned early: %v", err)
		case <-time.After(50 * time.Millisecond):
		}
		s.Close()
		select {
		case err := <-errc:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("stalled op should fail with ErrClosed after close, got %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("stalled op did not unblock on close")
		}

		// A stalled rank produces no deadline error of its own even when
		// deadline-decorated underneath — blame must come from peers.
		s2 := WithChaos(WithDeadline(ts[1], 10*time.Millisecond), ChaosPlan{Stall: true})
		errc2 := make(chan error, 1)
		go func() {
			//acpvet:ignore the stalled Recv only ever returns ErrClosed, never a buffer
			_, err := s2.Recv(0)
			errc2 <- err
		}()
		select {
		case err := <-errc2:
			t.Fatalf("stall over deadline decoration leaked an error: %v", err)
		case <-time.After(50 * time.Millisecond):
		}
		s2.Close()
		if err := <-errc2; !errors.Is(err, ErrClosed) {
			t.Fatalf("expected ErrClosed after close, got %v", err)
		}
	})
}

// TestChaosFlipCaughtByIntegrity stacks the chaos decorator inside the
// integrity decorator — the configuration the corruption chaos tests use —
// and asserts a certain flip (Flip 1) is detected and attributed to the
// sender, while the clean reverse direction still round-trips.
func TestChaosFlipCaughtByIntegrity(t *testing.T) {
	base, err := NewInprocGroup(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer base[0].Close()
	ts := []Transport{
		WithIntegrity(WithChaos(base[0], ChaosPlan{Flip: 1, Seed: 99})),
		WithIntegrity(base[1]),
	}

	payload := bytes.Repeat([]byte{0x5a}, 256)
	if err := ts[0].Send(1, payload); err != nil {
		t.Fatal(err)
	}
	leaked, err := ts[1].Recv(0)
	if err == nil {
		ts[1].Release(leaked)
		t.Fatal("flipped payload was delivered clean")
	}
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Peer != 0 {
		t.Fatalf("flipped payload surfaced as %v, want *CorruptError{Peer: 0}", err)
	}

	// The uncorrupted direction keeps working after the detection.
	if err := ts[1].Send(0, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ts[0].Recv(1)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("clean direction broken: %v", err)
	}
	ts[0].Release(got)
}

// TestChaosFlipSendNoCopyOwnership: a flipped SendNoCopy goes out as a leased
// copy and recycles the caller's lease, so the pool balances once the
// receiver releases.
func TestChaosFlipSendNoCopyOwnership(t *testing.T) {
	ts, err := NewInprocGroup(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(ts)
	f := WithChaos(ts[0], ChaosPlan{Flip: 1, Seed: 5})
	buf := f.Lease(16)
	copy(buf, "sixteen byte msg")
	if err := f.SendNoCopy(1, buf); err != nil {
		t.Fatal(err)
	}
	got, err := ts[1].Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) == "sixteen byte msg" {
		t.Fatal("Flip 1 send arrived unflipped")
	}
	ts[1].Release(got)
	if n := ts[0].(leaseAccountant).Outstanding(); n != 0 {
		t.Fatalf("%d buffers outstanding after a flipped SendNoCopy", n)
	}
}

// TestChaosDelay: every successful Recv returns no earlier than Delay after
// the message is consumed.
func TestChaosDelay(t *testing.T) {
	ts, err := NewInprocGroup(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(ts)
	const delay = 20 * time.Millisecond
	d := WithChaos(ts[1], ChaosPlan{Delay: delay})
	if err := ts[0].Send(1, []byte("late")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, err := d.Recv(0)
	if err != nil || string(got) != "late" {
		t.Fatalf("delayed recv: %q, %v", got, err)
	}
	d.Release(got)
	if el := time.Since(start); el < delay {
		t.Fatalf("recv returned after %v, want at least %v", el, delay)
	}
}
