package comm

import (
	"sync"
	"time"
)

// This file holds BandwidthPacer, the bandwidth half of the network model the
// benchmarks run on the in-process transport. The latency half and the fault
// injection live in WithChaos (chaos.go).

// BandwidthPacer models the transmission (beta) term of the alpha-beta
// network model for a whole transport group: every directed link is a pipe
// that transmits at bytesPerSec. Send stamps each message with the absolute
// time its last byte leaves the modeled wire (the link's clock advances by
// len/bytesPerSec from max(clock, now), so back-to-back messages queue and
// an idle link earns no credit), and Recv simply waits until the stamped
// deadline — transit runs "in the background" while ranks compute, exactly
// like a real NIC, so a chunked schedule is charged the same wire time as an
// unpipelined one, not a per-message sleep-granularity tax (OS timers are
// ~1ms-coarse on server kernels; absolute deadlines make overshoot
// self-correcting).
//
// One pacer is shared by the group: wrap every rank's transport with Wrap
// before use. The wrapped transports delegate everything else (including the
// pooled-buffer contract) to the underlying transport.
type BandwidthPacer struct {
	bytesPerSec float64

	mu    sync.Mutex
	links map[[2]int]*linkPipe
}

// linkPipe is one directed link's modeled wire: the time its queued bytes
// finish transmitting, plus the FIFO of per-message delivery deadlines.
type linkPipe struct {
	clock     time.Time
	deadlines []time.Time
}

// NewBandwidthPacer builds a pacer for links of bytesPerSec.
func NewBandwidthPacer(bytesPerSec float64) *BandwidthPacer {
	return &BandwidthPacer{bytesPerSec: bytesPerSec, links: make(map[[2]int]*linkPipe)}
}

// Wrap decorates one rank's transport with the shared pacing. A
// non-positive rate returns t unchanged.
func (p *BandwidthPacer) Wrap(t Transport) Transport {
	if p.bytesPerSec <= 0 {
		return t
	}
	return &pacedTransport{Transport: t, p: p}
}

// stamp queues a message's delivery deadline on the from→to link.
func (p *BandwidthPacer) stamp(from, to, bytes int) {
	now := time.Now()
	p.mu.Lock()
	key := [2]int{from, to}
	l := p.links[key]
	if l == nil {
		l = &linkPipe{}
		p.links[key] = l
	}
	if l.clock.Before(now) {
		l.clock = now
	}
	l.clock = l.clock.Add(time.Duration(float64(bytes) / p.bytesPerSec * float64(time.Second)))
	l.deadlines = append(l.deadlines, l.clock)
	p.mu.Unlock()
}

// take pops the next delivery deadline of the from→to link (zero time when
// the message predates wrapping).
func (p *BandwidthPacer) take(from, to int) time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := p.links[[2]int{from, to}]
	if l == nil || len(l.deadlines) == 0 {
		return time.Time{}
	}
	d := l.deadlines[0]
	n := copy(l.deadlines, l.deadlines[1:])
	l.deadlines = l.deadlines[:n]
	return d
}

// pacedTransport is one rank's endpoint of a paced group.
type pacedTransport struct {
	Transport
	p *BandwidthPacer
}

func (t *pacedTransport) Send(to int, data []byte) error {
	t.p.stamp(t.Rank(), to, len(data))
	return t.Transport.Send(to, data)
}

func (t *pacedTransport) SendNoCopy(to int, buf []byte) error {
	t.p.stamp(t.Rank(), to, len(buf))
	return t.Transport.SendNoCopy(to, buf)
}

func (t *pacedTransport) Recv(from int) ([]byte, error) {
	data, err := t.Transport.Recv(from)
	if err != nil {
		return nil, err
	}
	if d := time.Until(t.p.take(from, t.Rank())); d > 0 {
		time.Sleep(d)
	}
	return data, nil
}
