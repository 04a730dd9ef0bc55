package comm

import (
	"encoding/binary"
	"fmt"
)

// This file implements the ring all-reduce and the all-gather, both with
// intra-buffer chunk pipelining — the third of the paper's three system
// optimizations (overlap, tensor fusion, pipelining; §III-B). A sealed fusion
// buffer no longer has to be encoded in full, shipped in full and decoded in
// full: the collectives split the buffer into m pipeline segments and keep
// several segments in flight at once, so segment s+1's messages are on the
// wire while segment s is still being reduced (or while its chunk is still
// being encoded/decoded by the caller). m = 1 is the unpipelined collective;
// AllReduceSum and AllGather are that case.
//
// # Segment protocol
//
// Every message carries an 8-byte trailer — two little-endian uint32 words
// (segment index, protocol step) — behind the payload, so the payload starts
// at offset 0 of the leased buffer and the float encode is one aligned copy.
// Per-link delivery is FIFO and each segment's messages are sent in step
// order, so a receiver demultiplexes by reading the tag of whatever message
// arrives next and crediting it to that segment's state machine; no
// reordering buffer is needed, and a tag that does not match the segment's
// expected next step is a protocol violation surfaced as an error rather
// than corrupted data.
//
// # Bit-identity
//
// AllReduceSumPipelined partitions the buffer so that every element keeps
// its ring-chunk index for every m: segment j of ring chunk c is the j-th
// sub-slice of chunkRange(n, p, c). Each segment then runs the standard p-1
// reduce-scatter + p-1 all-gather schedule over its sub-slices. Per element,
// the additions happen in exactly the ring's order — the partial for chunk c
// starts at rank c and travels the same path, so with x_r the input of rank
// r the result is x_{(c+p-1)%p} + (… + (x_{(c+1)%p} + x_c)) — whatever m is.
// m = 1 is the plain ring, so the result is bit-for-bit identical for every
// m, which is what lets the trainer's PipelineChunks knob promise
// bit-identical models at any chunk count.

// pipelineWindow bounds how many segments have messages in flight at once.
// Each in-window segment holds at most one outstanding message per link, so
// the window must stay below the transport's internal send buffering (64
// messages for the in-process transport, 256 for TCP).
const pipelineWindow = 8

// pipeTagBytes is the segment/step trailer appended to every pipelined
// message.
const pipeTagBytes = 8

// putPipeTag writes the (segment, step) trailer into the last pipeTagBytes
// of msg.
//
//acpvet:borrows
func putPipeTag(msg []byte, seg, step int) {
	tag := msg[len(msg)-pipeTagBytes:]
	binary.LittleEndian.PutUint32(tag, uint32(seg))
	binary.LittleEndian.PutUint32(tag[4:], uint32(step))
}

// pipeTag reads the (segment, step) trailer of msg, which must be at least
// pipeTagBytes long.
//
//acpvet:borrows
func pipeTag(msg []byte) (seg, step int) {
	tag := msg[len(msg)-pipeTagBytes:]
	return int(binary.LittleEndian.Uint32(tag)), int(binary.LittleEndian.Uint32(tag[4:]))
}

// segmentRange returns the half-open sub-range of [lo, hi) covered by
// pipeline segment j of m. Like chunkRange, sub-ranges differ in size by at
// most one element and may be empty.
func segmentRange(lo, hi, m, j int) (slo, shi int) {
	n := hi - lo
	return lo + j*n/m, lo + (j+1)*n/m
}

// pipeSegment returns the element range of ring chunk c's pipeline segment j
// for a vector of length n over p ranks and m segments — the partition unit
// of the pipelined ring all-reduce.
func pipeSegment(n, p, m, c, j int) (lo, hi int) {
	clo, chi := chunkRange(n, p, c)
	return segmentRange(clo, chi, m, j)
}

// AllReduceSumPipelined sums buf element-wise across all ranks in place
// with the ring algorithm split into m pipeline segments: up to
// pipelineWindow segments progress concurrently, hiding per-step wire time
// behind the reduction of other segments. m < 1 is treated as 1, the
// unpipelined ring. The result is bit-for-bit identical for every m (see the
// file comment).
func (c *Communicator) AllReduceSumPipelined(buf []float64, m int) error {
	p := c.t.Size()
	if p == 1 || len(buf) == 0 {
		return nil
	}
	m = max(m, 1)
	rank := c.t.Rank()
	next := (rank + 1) % p
	prev := (rank - 1 + p) % p
	totalSteps := 2 * (p - 1)

	// send posts segment j's message for protocol step s. Reduce-scatter
	// steps (s < p-1) forward chunk (rank-s) mod p; all-gather steps forward
	// chunk (rank+1-s') mod p.
	send := func(j, s int) error {
		var chunk int
		if s < p-1 {
			chunk = ((rank-s)%p + p) % p
		} else {
			chunk = ((rank+1-(s-(p-1)))%p + p) % p
		}
		lo, hi := pipeSegment(len(buf), p, m, chunk, j)
		msg := c.t.Lease(8*(hi-lo) + pipeTagBytes)
		encodeFloatsInto(msg[:8*(hi-lo)], buf[lo:hi])
		putPipeTag(msg, j, s)
		if err := c.t.SendNoCopy(next, msg); err != nil {
			c.t.Release(msg)
			return fmt.Errorf("comm: pipelined all-reduce send seg %d step %d: %w", j, s, err)
		}
		return nil
	}

	// Every rank runs the same schedule over FIFO links, so segments finish
	// in index order: the segments in flight are always [completed,
	// started), at most window of them, and segment j's next expected step
	// lives in slot j % window.
	window := min(m, pipelineWindow)
	var expect [pipelineWindow]int
	started, completed := 0, 0
	for ; started < window; started++ {
		if err := send(started, 0); err != nil {
			return err
		}
	}
	for completed < m {
		data, err := c.t.Recv(prev)
		if err != nil {
			return fmt.Errorf("comm: pipelined all-reduce recv: %w", err)
		}
		if len(data) < pipeTagBytes {
			c.t.Release(data)
			return fmt.Errorf("comm: pipelined all-reduce short message (%d bytes)", len(data))
		}
		j, s := pipeTag(data)
		if j < completed || j >= started || s != expect[j%window] {
			c.t.Release(data)
			return fmt.Errorf("comm: pipelined all-reduce protocol violation: got seg %d step %d (in flight %d..%d)", j, s, completed, started-1)
		}
		// Credit the message: reduce-scatter receives accumulate chunk
		// (rank-s-1); all-gather receives overwrite chunk (rank-s').
		var chunk int
		reduce := s < p-1
		if reduce {
			chunk = ((rank-s-1)%p + p) % p
		} else {
			chunk = ((rank-(s-(p-1)))%p + p) % p
		}
		lo, hi := pipeSegment(len(buf), p, m, chunk, j)
		payload := data[:len(data)-pipeTagBytes]
		if err := floatPayloadLen(payload, hi-lo); err != nil {
			c.t.Release(data)
			return fmt.Errorf("comm: pipelined all-reduce seg %d step %d: %w", j, s, err)
		}
		if reduce {
			addFloatsFrom(buf[lo:hi], payload)
		} else {
			decodeFloatsInto(buf[lo:hi], payload)
		}
		c.t.Release(data)
		if s+1 < totalSteps {
			expect[j%window] = s + 1
			if err := send(j, s+1); err != nil {
				return err
			}
			continue
		}
		if j != completed {
			return fmt.Errorf("comm: pipelined all-reduce protocol violation: seg %d finished before seg %d", j, completed)
		}
		completed++
		if started < m { // slide the window: the next segment takes the freed slot
			expect[started%window] = 0
			if err := send(started, 0); err != nil {
				return err
			}
			started++
		}
	}
	return nil
}

// AllGatherPipelined runs m chunked all-gathers as one pipelined collective.
// source(i) is called once per chunk, in order, to produce the local chunk
// blob; the chunk is forwarded to every peer immediately, so chunk i is on
// the wire while chunk i+1 is still being produced. sink(i, g) delivers each
// chunk's gathered result, in chunk order, as soon as every rank's chunk has
// landed — the caller decodes chunk i while later chunks are still in
// flight, and owns g until its Release. A sink error aborts the collective.
//
// All ranks must call it with the same m. Chunk payload sizes may differ per
// rank and per chunk (empty chunks included).
func (c *Communicator) AllGatherPipelined(m int, source func(i int) []byte, sink func(i int, g *Gathered) error) error {
	if m <= 0 {
		return fmt.Errorf("comm: pipelined all-gather needs m >= 1, got %d", m)
	}
	p := c.t.Size()
	rank := c.t.Rank()
	// Chunks complete in order and at most pipelineWindow are in flight
	// ([i, produced) below), so chunk i's handle is staged in slot
	// i % pipelineWindow.
	var staged [pipelineWindow]*Gathered

	// produceAndSend builds chunk i's local blob and forwards it to every
	// peer with the (chunk, 0) tag; the transport buffers the wire side, so
	// delivery of chunk i overlaps production of later chunks. One leased
	// message serves every peer and, through the lease itself, the sender's
	// own view of its chunk; it recycles once all p holders have settled.
	produceAndSend := func(i int) error {
		blob := source(i)
		g := newGathered(c.t, p)
		staged[i%pipelineWindow] = g
		msg := c.t.Lease(len(blob) + pipeTagBytes)
		copy(msg, blob)
		putPipeTag(msg, i, 0)
		g.setPayload(rank, msg[:len(blob)], msg)
		for d := 1; d < p; d++ {
			to := (rank + d) % p
			c.t.Share(msg)
			if err := c.t.SendNoCopy(to, msg); err != nil {
				// Failed handoff: settle the share this peer would have held.
				c.t.Release(msg)
				return fmt.Errorf("comm: pipelined all-gather send chunk %d to %d: %w", i, to, err)
			}
		}
		return nil
	}

	// Sliding-window schedule: keep up to pipelineWindow chunks in flight so
	// the transport's internal send buffering is never exhausted (all ranks
	// blocking in Send at once would deadlock), then alternate between
	// completing the oldest chunk and admitting the next one. Chunk i
	// completes when every peer's chunk-i message has arrived (per-link FIFO
	// guarantees peers' chunks arrive in order; the tag is verified, not
	// trusted); the sink consumes chunk i while later chunks are still being
	// produced and delivered.
	abort := func() { abortGathers(staged[:]) }
	produced := 0
	for ; produced < min(m, pipelineWindow); produced++ {
		if err := produceAndSend(produced); err != nil {
			abort()
			return err
		}
	}
	for i := 0; i < m; i++ {
		g := staged[i%pipelineWindow]
		for d := 1; d < p; d++ {
			from := (rank - d + p) % p
			data, err := c.t.Recv(from)
			if err != nil {
				abort()
				return fmt.Errorf("comm: pipelined all-gather recv chunk %d from %d: %w", i, from, err)
			}
			if len(data) < pipeTagBytes {
				c.t.Release(data)
				abort()
				return fmt.Errorf("comm: pipelined all-gather short message (%d bytes)", len(data))
			}
			if chunk, _ := pipeTag(data); chunk != i {
				c.t.Release(data)
				abort()
				return fmt.Errorf("comm: pipelined all-gather protocol violation: got chunk %d from %d, want %d", chunk, from, i)
			}
			g.setPayload(from, data[:len(data)-pipeTagBytes], data)
		}
		g.finish()
		staged[i%pipelineWindow] = nil // ownership passes to the sink
		if err := sink(i, g); err != nil {
			abort()
			return fmt.Errorf("comm: pipelined all-gather sink chunk %d: %w", i, err)
		}
		if produced < m {
			if err := produceAndSend(produced); err != nil {
				abort()
				return err
			}
			produced++
		}
	}
	return nil
}

// abortGathers drops the staged per-chunk handles after a failed pipelined
// gather.
func abortGathers(gs []*Gathered) {
	for _, g := range gs {
		if g != nil {
			g.abort()
		}
	}
}
