package comm

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the sentinel wrapped by every failure a chaos transport
// produces; test assertions match it with errors.Is.
var ErrInjected = errors.New("comm: injected fault")

// ChaosPlan scripts the faults WithChaos injects into one rank's transport.
// Send, SendNoCopy and Recv are counted together as ops; the first After ops
// pass untouched (failed ops count too), and every later op is armed:
//
//   - Stall: an armed op blocks until Close, then fails with ErrClosed — the
//     hung-but-heartbeating rank.
//   - Fail: an armed op fails with probability Fail, with an error wrapping
//     ErrInjected — a transient fault (Fail 1 is a terminal one).
//   - Flip: an armed non-empty send goes out, with probability Flip, as a
//     leased copy with one uniformly chosen bit flipped — silent corruption.
//
// Delay is the link model, not a fault, so After does not gate it: every
// successful Recv returns no earlier than Delay after the message is
// consumed, the alpha term of the alpha-beta network model applied per hop.
//
// Fail and Flip draw from one math/rand stream seeded by Seed: Fail one
// Float64 per armed op, Flip one Float64 per armed non-empty send and an
// Intn(8·len) when it flips. The same seed and op sequence always inject the
// same faults.
//
// The simulator's sim.ScriptedFault kinds map onto plan fields: transient is
// Fail, hang is Stall, corrupt is Flip. Crash, zone-outage, join and drain
// are train.Cluster calls, not transport faults.
type ChaosPlan struct {
	Seed  int64
	After int
	Stall bool
	Fail  float64
	Flip  float64
	Delay time.Duration
}

// chaosTransport injects a ChaosPlan's faults around the wrapped transport.
// It deliberately does not implement timeoutCapable: a stall in front of
// WithDeadline must produce no deadline error of its own.
type chaosTransport struct {
	Transport
	plan    ChaosPlan
	ops     atomic.Int64
	mu      sync.Mutex // guards rng: collectives send from several goroutines
	rng     *rand.Rand
	stalled chan struct{}
	once    sync.Once
}

// WithChaos wraps t with the faults plan scripts. Within one op the checks
// run in order: stall, fail, flip (sends only), the inner op, then delay
// (Recv only). Ownership follows the Transport contract: a failed or stalled
// SendNoCopy leaves the lease with the caller, and a failed Recv consumes
// nothing — the message stays queued for the next Recv. A plan that injects
// nothing returns t unchanged.
func WithChaos(t Transport, plan ChaosPlan) Transport {
	if !plan.Stall && plan.Fail <= 0 && plan.Flip <= 0 && plan.Delay <= 0 {
		return t
	}
	return &chaosTransport{
		Transport: t,
		plan:      plan,
		rng:       rand.New(rand.NewSource(plan.Seed)),
		stalled:   make(chan struct{}),
	}
}

// strike counts one op and, once it is armed, applies the plan's op faults:
// it stalls until Close, fails, or for a send of n > 0 bytes returns the
// payload bit to flip. It returns -1 when nothing is to be flipped.
func (c *chaosTransport) strike(op string, peer, n int) (int, error) {
	if c.ops.Add(1) <= int64(c.plan.After) {
		return -1, nil
	}
	if c.plan.Stall {
		<-c.stalled
		return -1, ErrClosed
	}
	c.mu.Lock()
	fail := c.plan.Fail > 0 && c.rng.Float64() < c.plan.Fail
	bit := -1
	if !fail && n > 0 && c.plan.Flip > 0 && c.rng.Float64() < c.plan.Flip {
		bit = c.rng.Intn(n * 8)
	}
	c.mu.Unlock()
	if fail {
		return -1, fmt.Errorf("comm: chaos %s peer %d: %w", op, peer, ErrInjected)
	}
	return bit, nil
}

// sendFlipped sends a leased copy of data with one bit flipped. The flip is
// never applied in place: inproc delivers by reference and a retained buffer
// may be mid-send to other peers.
func (c *chaosTransport) sendFlipped(to int, data []byte, bit int) error {
	evil := c.Transport.Lease(len(data))
	copy(evil, data)
	evil[bit>>3] ^= 1 << uint(bit&7)
	if err := c.Transport.SendNoCopy(to, evil); err != nil {
		c.Transport.Release(evil)
		return err
	}
	return nil
}

func (c *chaosTransport) Send(to int, data []byte) error {
	bit, err := c.strike("send", to, len(data))
	if err != nil {
		return err
	}
	if bit < 0 {
		return c.Transport.Send(to, data)
	}
	return c.sendFlipped(to, data, bit)
}

func (c *chaosTransport) SendNoCopy(to int, buf []byte) error {
	bit, err := c.strike("send", to, len(buf))
	if err != nil {
		return err
	}
	if bit < 0 {
		return c.Transport.SendNoCopy(to, buf)
	}
	if err := c.sendFlipped(to, buf, bit); err != nil {
		return err
	}
	// The flipped copy went out in the original's place; the caller's lease
	// was consumed from its point of view, so recycle it here (a no-op for
	// caller-owned or retained buffers, per the pool contract).
	c.Transport.Release(buf)
	return nil
}

func (c *chaosTransport) Recv(from int) ([]byte, error) {
	if _, err := c.strike("recv", from, 0); err != nil {
		return nil, err
	}
	data, err := c.Transport.Recv(from)
	if err != nil {
		return nil, err
	}
	if c.plan.Delay > 0 {
		time.Sleep(c.plan.Delay)
	}
	return data, nil
}

// Close releases every stalled op with ErrClosed — the group abort that
// follows a watchdog expel closes the transport, so teardown never hangs on
// the chaos it injected.
func (c *chaosTransport) Close() error {
	c.once.Do(func() { close(c.stalled) })
	return c.Transport.Close()
}
