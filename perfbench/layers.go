package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"acpsgd/internal/comm"
	"acpsgd/internal/compress"
	"acpsgd/internal/data"
	"acpsgd/internal/nn"
	"acpsgd/internal/train"
)

// ratioSteps replay steps bound the exact compression-ratio count; even, so
// ACP-SGD's P and Q steps weigh equally.
const ratioSteps = 16

// layerTimes holds per-rank, per-step milliseconds of each layer of a
// replayed training step, and the payload sizes the replay produced.
type layerTimes struct {
	batch, forward, backward, encode, decode, apply []float64
	// encodedBytes and rawBytes sum over ranks and the first ratioSteps
	// steps: encoded payload bytes, and the fp32 bytes of the gradients
	// that were encoded.
	encodedBytes, rawBytes int64
	// additiveFloats is one rank's compressed all-reduce payload by step
	// parity, rawFloats the uncompressed floats all-reduced beside it, and
	// blobBytes one rank's gathered payload per step.
	additiveFloats [2]int
	rawFloats      int
	blobBytes      int
}

// ratio is encoded bytes over the fp32 bytes of the encoded gradients; 0
// when the method encodes nothing.
func (lt *layerTimes) ratio() float64 {
	if lt.rawBytes == 0 {
		return 0
	}
	return float64(lt.encodedBytes) / float64(lt.rawBytes)
}

// barrier is a reusable rendezvous for a fixed number of goroutines that
// also hands all of them one shared decision.
type barrier struct {
	n, count, gen int
	stop          bool
	mu            sync.Mutex
	cond          *sync.Cond
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until all n goroutines have called it and returns what done
// reported to the last one to arrive, the same value for every caller.
func (b *barrier) wait(done func() bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.stop = done()
		b.cond.Broadcast()
		return b.stop
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	return b.stop
}

// replayRank is one rank's state in the layer replay: its own model,
// batcher, optimizer and compressors, built the way the trainer builds
// them, and the slot its encoded payloads are published in.
type replayRank struct {
	rank     int
	model    *nn.Model
	batch    *data.Batcher
	opt      *train.SGD
	loss     nn.SoftmaxCrossEntropy
	additive map[int]compress.AdditiveCompressor // by parameter index
	gather   compress.ChunkedGatherCompressor
	bounds   []int
	packed   []float64
	step     int

	// Published payloads: floats by parameter index (additive) or encoded
	// bytes by chunk (gather).
	floats map[int][]float64
	blobs  [][]byte
	times  layerTimes
}

func isMatrix(p *nn.Param) bool { return !p.IsVector && p.W.Rows > 1 && p.W.Cols > 1 }

func newReplayRank(w workload, seed int64, rank int, trainSet *data.Dataset) (*replayRank, error) {
	spec, err := compress.ParseSpec(w.spec)
	if err != nil {
		return nil, err
	}
	fac, spec, err := compress.Resolve(spec)
	if err != nil {
		return nil, err
	}
	shard, err := trainSet.Shard(rank, workers)
	if err != nil {
		return nil, err
	}
	r := &replayRank{
		rank:     rank,
		model:    buildModel(rand.New(rand.NewSource(seed))),
		batch:    data.NewBatcher(shard, w.batch, seed*7919+int64(rank)),
		opt:      train.NewSGD(momentum, 0),
		additive: map[int]compress.AdditiveCompressor{},
		floats:   map[int][]float64{},
	}
	r.opt.SetLR(lr)
	total := 0
	info := fac.Info()
	for i, p := range r.model.Params() {
		total += p.NumElems()
		if info.Scope != compress.ScopeMatrix || !isMatrix(p) {
			continue
		}
		st, err := fac.New(spec, compress.Tensor{Rows: p.W.Rows, Cols: p.W.Cols, ID: int64(i), WorkerRank: rank})
		if err != nil {
			return nil, err
		}
		c, ok := st.(compress.AdditiveCompressor)
		if !ok {
			return nil, fmt.Errorf("%s builds %T, not an additive compressor", spec.Name, st)
		}
		r.additive[i] = c
	}
	if info.Scope == compress.ScopeBuffer {
		// The whole model fits one default fusion buffer, so the trainer
		// keeps one gather compressor, for buffer 0, over every gradient.
		st, err := fac.New(spec, compress.Tensor{Rows: total, Cols: 1, ID: 0, WorkerRank: rank})
		if err != nil {
			return nil, err
		}
		c, ok := st.(compress.GatherCompressor)
		if !ok {
			return nil, fmt.Errorf("%s builds %T, not a gather compressor", spec.Name, st)
		}
		m := max(w.chunks, 1)
		r.gather = compress.Chunked(c, total)
		r.bounds = r.gather.ChunkBounds(m)
		r.packed = make([]float64, total)
		r.blobs = make([][]byte, m)
	}
	return r, nil
}

// encode compresses this step's gradients and publishes the payloads,
// timing only the compressor calls.
func (r *replayRank) encode() (time.Duration, int64, int64) {
	var spent time.Duration
	var enc, raw int64
	params := r.model.Params()
	for i := len(params) - 1; i >= 0; i-- {
		c, ok := r.additive[i]
		if !ok {
			continue
		}
		t0 := time.Now()
		payload := c.Compress(r.step, params[i].Grad.Data)
		spent += time.Since(t0)
		r.floats[i] = append(r.floats[i][:0], payload...)
		enc += int64(len(payload)) * compress.WireBytesF32
		raw += int64(params[i].NumElems()) * compress.WireBytesF32
	}
	if r.gather == nil {
		return spent, enc, raw
	}
	off := 0
	for i := len(params) - 1; i >= 0; i-- {
		off += copy(r.packed[off:], params[i].Grad.Data)
	}
	for c := range r.blobs {
		t0 := time.Now()
		blob := r.gather.EncodeChunk(r.step, r.packed, r.bounds, c)
		spent += time.Since(t0)
		r.blobs[c] = append(r.blobs[c][:0], blob...)
		enc += int64(len(blob))
	}
	raw += int64(len(r.packed)) * compress.WireBytesF32
	return spent, enc, raw
}

// decode merges every rank's published payloads into this rank's
// gradients, timing only the compressor calls. Summing additive payloads
// stands in for the all-reduce and is not timed.
func (r *replayRank) decode(all []*replayRank, agg []float64) (time.Duration, error) {
	var spent time.Duration
	params := r.model.Params()
	for i, c := range r.additive {
		sum := agg[:len(r.floats[i])]
		clear(sum)
		for _, peer := range all {
			for j, v := range peer.floats[i] {
				sum[j] += v
			}
		}
		t0 := time.Now()
		c.Finalize(r.step, sum, len(all), params[i].Grad.Data)
		spent += time.Since(t0)
	}
	if r.gather == nil {
		return spent, nil
	}
	blobs := make([][]byte, len(all))
	for c := range r.blobs {
		for k, peer := range all {
			blobs[k] = peer.blobs[c]
		}
		t0 := time.Now()
		err := r.gather.DecodeChunk(r.step, blobs, r.packed, r.bounds, c)
		spent += time.Since(t0)
		if err != nil {
			return spent, err
		}
	}
	off := 0
	for i := len(params) - 1; i >= 0; i-- {
		off += copy(params[i].Grad.Data, r.packed[off:])
	}
	return spent, nil
}

// replayLayers runs the training step layer by layer on every rank at once
// (so ranks contend for the cores as they do inside Cluster.Step), timing
// each layer's public entry point: Batcher.Next, Model.Forward (with the
// loss), Model.Backward, the compressor's encode and decode, and SGD.Step.
// It runs at least ratioSteps steps and until the budget is spent.
func replayLayers(w workload, seed int64, budget time.Duration) (*layerTimes, error) {
	trainSet, _, err := datasets(seed)
	if err != nil {
		return nil, err
	}
	ranks := make([]*replayRank, workers)
	for r := range ranks {
		if ranks[r], err = newReplayRank(w, seed, r, trainSet); err != nil {
			return nil, err
		}
	}
	maxLen := 0
	for _, p := range ranks[0].model.Params() {
		maxLen = max(maxLen, p.NumElems())
	}
	b := newBarrier(workers)
	start := time.Now()
	done := func() bool { return ranks[0].step+1 >= ratioSteps && time.Since(start) >= budget }
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for _, r := range ranks {
		wg.Add(1)
		go func(r *replayRank) {
			defer wg.Done()
			agg := make([]float64, maxLen)
			for stop := false; !stop; {
				var err error
				stop, err = r.replayStep(ranks, agg, b, done)
				if err != nil && errs[r.rank] == nil {
					errs[r.rank] = err
				}
			}
		}(r)
	}
	wg.Wait()
	lt := &layerTimes{rawFloats: rawFloats(ranks[0]), additiveFloats: ranks[0].times.additiveFloats}
	for _, r := range ranks {
		lt.encodedBytes += r.times.encodedBytes
		lt.rawBytes += r.times.rawBytes
	}
	if err := firstError("replay", errs); err != nil {
		return nil, err
	}
	for _, rr := range ranks {
		lt.batch = append(lt.batch, rr.times.batch...)
		lt.forward = append(lt.forward, rr.times.forward...)
		lt.backward = append(lt.backward, rr.times.backward...)
		lt.encode = append(lt.encode, rr.times.encode...)
		lt.decode = append(lt.decode, rr.times.decode...)
		lt.apply = append(lt.apply, rr.times.apply...)
	}
	lt.blobBytes = ranks[0].times.blobBytes
	return lt, nil
}

// rawFloats counts the gradient floats a step all-reduces uncompressed:
// every parameter without an additive compressor, unless the method
// gathers the whole model instead.
func rawFloats(r *replayRank) int {
	if r.gather != nil {
		return 0
	}
	n := 0
	for i, p := range r.model.Params() {
		if _, ok := r.additive[i]; !ok {
			n += p.NumElems()
		}
	}
	return n
}

// replayStep runs one replayed step on rank r: local compute and encode,
// a rendezvous standing in for the collective, decode and apply.
// It returns the barrier's decision whether to stop.
func (r *replayRank) replayStep(all []*replayRank, agg []float64, b *barrier, done func() bool) (bool, error) {
	lt := &r.times
	t0 := time.Now()
	x, labels := r.batch.Next()
	t1 := time.Now()
	r.model.ZeroGrads()
	logits := r.model.Forward(x)
	_, dlogits := r.loss.Forward(logits, labels)
	t2 := time.Now()
	r.model.Backward(dlogits, nil)
	t3 := time.Now()
	enc, encBytes, rawBytes := r.encode()
	if r.step < ratioSteps {
		lt.encodedBytes += encBytes
		lt.rawBytes += rawBytes
	}
	if r.step < 2 && r.gather == nil {
		lt.additiveFloats[r.step] = int(encBytes / compress.WireBytesF32)
	}
	lt.blobBytes = 0
	for _, blob := range r.blobs {
		lt.blobBytes += len(blob)
	}
	b.wait(func() bool { return false }) // every rank has published its payloads
	dec, err := r.decode(all, agg)
	t4 := time.Now()
	aerr := r.opt.Step(r.model.Params())
	t5 := time.Now()
	// Every rank has read its peers' payloads before any encodes again.
	stop := b.wait(done)
	r.step++

	msOf := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	lt.batch = append(lt.batch, msOf(t1.Sub(t0)))
	lt.forward = append(lt.forward, msOf(t2.Sub(t1)))
	lt.backward = append(lt.backward, msOf(t3.Sub(t2)))
	lt.encode = append(lt.encode, msOf(enc))
	lt.decode = append(lt.decode, msOf(dec))
	lt.apply = append(lt.apply, msOf(t5.Sub(t4)))
	if err == nil {
		err = aerr
	}
	return stop, err
}

// collectiveMs times the step's collectives alone on a fresh group of the
// workload's transports, at the payload sizes the replay produced: the
// compressed and raw all-reduces of an additive method, or one all-gather
// of the encoded payload. It returns per-rank, per-step milliseconds.
func collectiveMs(w workload, lt *layerTimes, budget time.Duration) ([]float64, error) {
	ts, err := w.newTransports(workers, nil)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, t := range ts {
			t.Close()
		}
	}()
	samples := make([][]float64, workers)
	errs := make([]error, workers)
	var abort sync.Once
	b := newBarrier(workers)
	start := time.Now()
	done := func() bool { return time.Since(start) >= budget || firstError("", errs) != nil }
	var wg sync.WaitGroup
	for r, t := range ts {
		wg.Add(1)
		go func(r int, c *comm.Communicator) {
			defer wg.Done()
			blob := make([]byte, lt.blobBytes)
			var local []float64
			for s, stop := 0, false; !stop; s++ {
				t0 := time.Now()
				if err := oneCollectiveStep(c, lt, s, blob, &local); err != nil {
					errs[r] = err
					// Fail the peers' collectives too; every rank then meets
					// at the barrier, which stops the loop.
					abort.Do(func() {
						for _, t := range ts {
							t.Close()
						}
					})
				} else {
					samples[r] = append(samples[r], float64(time.Since(t0))/float64(time.Millisecond))
				}
				stop = b.wait(done)
			}
		}(r, comm.NewCommunicator(t))
	}
	wg.Wait()
	if err := firstError("collective", errs); err != nil {
		return nil, err
	}
	var all []float64
	for _, s := range samples {
		all = append(all, s...)
	}
	return all, nil
}

func oneCollectiveStep(c *comm.Communicator, lt *layerTimes, step int, blob []byte, local *[]float64) error {
	if lt.blobBytes > 0 {
		g, err := c.AllGather(blob)
		if err != nil {
			return err
		}
		g.Release()
		return nil
	}
	for _, n := range []int{lt.additiveFloats[step%2], lt.rawFloats} {
		if n == 0 {
			continue
		}
		if cap(*local) < n {
			*local = make([]float64, n)
		}
		if err := c.AllReduceSum((*local)[:n]); err != nil {
			return err
		}
	}
	return nil
}

// firstError reports the lowest rank's error, naming the rank.
func firstError(what string, errs []error) error {
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("%s rank %d: %w", what, r, err)
		}
	}
	return nil
}
