package comm

import (
	"fmt"
)

// Communicator layers collective operations over a Transport. Collectives
// must be invoked by all ranks of the group in the same order (standard
// SPMD semantics); within one rank a Communicator is not safe for concurrent
// collective calls — callers such as the trainer serialize collectives on a
// dedicated communication goroutine, exactly as the paper serializes NCCL
// launches on a communication stream.
//
// All float-bearing collectives follow the transport's pooled-buffer
// contract: send chunks are encoded straight into leased buffers and handed
// over with SendNoCopy, and received chunks are reduced or copied out in one
// pass and released, so the steady state allocates nothing.
type Communicator struct {
	t Transport
}

// NewCommunicator wraps a Transport.
func NewCommunicator(t Transport) *Communicator { return &Communicator{t: t} }

// Rank returns this rank.
func (c *Communicator) Rank() int { return c.t.Rank() }

// Size returns the group size.
func (c *Communicator) Size() int { return c.t.Size() }

// chunkRange returns the half-open element range of ring chunk i for a
// vector of length n split across p chunks. Chunks differ in size by at most
// one element and may be empty when n < p.
func chunkRange(n, p, i int) (lo, hi int) {
	return i * n / p, (i + 1) * n / p
}

// AllReduceSum sums buf element-wise across all ranks in place using the
// ring algorithm: p-1 reduce-scatter steps followed by p-1 all-gather steps.
// Total bytes moved per rank: 2*(p-1)/p * len(buf) * 8 (plus an 8-byte tag
// per message), matching the bandwidth-optimal complexity in the paper's
// Table II. It is the one-segment case of AllReduceSumPipelined.
func (c *Communicator) AllReduceSum(buf []float64) error { return c.AllReduceSumPipelined(buf, 1) }

// AllGather collects every rank's byte payload (rank r's payload at
// Payload(r)). Payload sizes may differ per rank — this is what Sign-SGD and
// Top-k SGD need, and its per-rank traffic is (p-1)*N as in Table II. It is
// the one-chunk case of AllGatherPipelined.
//
// The local payload is copied once into a send buffer which every peer
// receives without further copies (the in-process transport delivers the
// same bytes to all ranks); received payloads are served as views over the
// receive buffers — no pack pass — and the result is caller-owned: read it
// through the Gathered views and call Release when done to recycle the
// buffers (or call Bytes to lazily pack a contiguous region). The send
// buffer doubles as the sender's own view and is shared with every peer
// (Transport.Share), so it recycles once every holder has released it;
// steady state allocates only the small Gathered handle.
func (c *Communicator) AllGather(local []byte) (*Gathered, error) {
	var out *Gathered
	err := c.AllGatherPipelined(1,
		func(int) []byte { return local },
		func(_ int, g *Gathered) error { out = g; return nil })
	return out, err
}

// Broadcast copies buf from root to every rank in place (flat tree: root
// sends to each peer directly). The root encodes once into a pooled buffer
// shared by all destinations, which recycles once every peer has released
// it.
func (c *Communicator) Broadcast(buf []float64, root int) error {
	p := c.t.Size()
	if root < 0 || root >= p {
		return fmt.Errorf("comm: broadcast root %d out of range", root)
	}
	if p == 1 {
		return nil
	}
	if c.t.Rank() == root {
		msg := c.t.Lease(8 * len(buf))
		encodeFloatsInto(msg, buf)
		defer c.t.Release(msg) // the root's own holding; each peer settles its share
		for dst := 0; dst < p; dst++ {
			if dst == root {
				continue
			}
			c.t.Share(msg)
			if err := c.t.SendNoCopy(dst, msg); err != nil {
				c.t.Release(msg) // the failed handoff's share
				return fmt.Errorf("comm: broadcast send to %d: %w", dst, err)
			}
		}
		return nil
	}
	data, err := c.t.Recv(root)
	if err != nil {
		return fmt.Errorf("comm: broadcast recv: %w", err)
	}
	if err := floatPayloadLen(data, len(buf)); err != nil {
		c.t.Release(data)
		return fmt.Errorf("comm: broadcast: %w", err)
	}
	decodeFloatsInto(buf, data)
	c.t.Release(data)
	return nil
}

// ExchangeWith sends data to peer and receives peer's payload (a symmetric
// pairwise exchange — both ranks must call it with each other as peer).
// This is the building block of hypercube patterns such as gTop-k's
// merge-and-truncate reduction. The returned payload is owned by the caller
// but read-only (see the Transport pooled-buffer contract).
func (c *Communicator) ExchangeWith(peer int, data []byte) ([]byte, error) {
	msg := c.t.Lease(len(data))
	copy(msg, data)
	if err := c.t.SendNoCopy(peer, msg); err != nil {
		c.t.Release(msg)
		return nil, fmt.Errorf("comm: exchange send to %d: %w", peer, err)
	}
	got, err := c.t.Recv(peer)
	if err != nil {
		return nil, fmt.Errorf("comm: exchange recv from %d: %w", peer, err)
	}
	c.t.Retain(got)
	return got, nil
}
