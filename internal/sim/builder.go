package sim

import (
	"acpsgd/internal/models"
)

// costModel is one simulatable method's cost, described in one place: the
// paper's default execution mode, the task graph the method builds, and the
// per-tensor payload, encode/decode and memory terms that price it.
type costModel struct {
	mode  Mode
	build func(*builder)
	// payload is a tensor's per-worker communicated bytes (fp32 wire
	// accounting as in the paper). Power-SGD's graph prices its P and Q
	// all-reduces itself and leaves this nil.
	payload func(*builder, tensorInfo) float64
	// encode and decode price a gather bucket of the given element count.
	// The all-reduce methods price compression per tensor inside their
	// build functions and leave these nil.
	encode, decode func(*builder, int) float64
	// memory adds the method's device memory to base, the parameters,
	// gradients, momentum, activations and framework overhead (nil: none).
	memory func(cfg *Config, base float64) float64
	// alternates marks ACP-SGD's P/Q alternation: Simulate prices both
	// parities and averages them.
	alternates bool
}

// costModels maps canonical compressor-registry names (see
// internal/compress.Register) onto their cost models. Registered methods
// without an entry (e.g. dgc) are trainable but not simulatable.
var costModels = map[string]*costModel{
	"ssgd": {
		mode:    ModeWFBPTF,
		build:   (*builder).buildSSGD,
		payload: rawPayload,
	},
	"sign": {
		mode:    ModeNaive,
		build:   (*builder).buildGather,
		payload: signPayload,
		encode:  (*builder).signEncodeDur,
		decode:  (*builder).signDecodeDur,
		memory:  signMemory,
	},
	"topk": {
		mode:    ModeNaive,
		build:   (*builder).buildGather,
		payload: topkPayload,
		encode:  (*builder).topkEncodeDur,
		decode:  (*builder).topkDecodeDur,
		memory:  topkMemory,
	},
	"power": {
		mode:   ModeNaive,
		build:  (*builder).buildPower,
		memory: lowRankMemory,
	},
	"acp": {
		mode:       ModeWFBPTF,
		build:      (*builder).buildACP,
		payload:    acpPayload,
		memory:     lowRankMemory,
		alternates: true,
	},
}

// tensorInfo carries the per-tensor quantities the graph builders need.
type tensorInfo struct {
	spec     models.TensorSpec
	isMatrix bool
	rEff     int
	bwdDur   float64
}

// builder assembles the task graph of one iteration.
type builder struct {
	cfg *Config
	eng *engine

	// tensors in back-propagation (reverse) order.
	tensors []tensorInfo
	fwdDur  float64

	// payloadBytes accumulates the per-worker communicated volume.
	payloadBytes float64
}

func newBuilder(cfg *Config) *builder {
	b := &builder{cfg: cfg, eng: newEngine(cfg.GPU.InterferenceRate)}

	spec := cfg.Model
	totalFLOPs := spec.TotalFwdFLOPs()
	computeSec := spec.RefComputeSec * cfg.GPU.batchScale(cfg.batch(), spec.DefaultBatch)
	fwdSec := computeSec / 3
	bwdSec := computeSec * 2 / 3
	b.fwdDur = fwdSec

	rank := cfg.rank
	// Reverse (back-propagation) order.
	for i := len(spec.Tensors) - 1; i >= 0; i-- {
		t := spec.Tensors[i]
		ti := tensorInfo{
			spec:     t,
			isMatrix: t.IsMatrix(),
			bwdDur:   bwdSec * t.FwdFLOPs / totalFLOPs,
		}
		if ti.isMatrix {
			r := rank
			if r > t.Rows {
				r = t.Rows
			}
			if r > t.Cols {
				r = t.Cols
			}
			if r < 1 {
				r = 1
			}
			ti.rEff = r
		}
		b.tensors = append(b.tensors, ti)
	}
	return b
}

// ---- cost helpers ----------------------------------------------------

// qrCost is the per-tensor orthogonalization cost; the original Power-SGD
// orthogonalization (SlowOrth) scales with the rank (per-column
// Gram-Schmidt), the reduced QR of §V-A does not.
func (b *builder) qrCost(r int) float64 {
	g := b.cfg.GPU
	if b.cfg.SlowOrth {
		f := g.SlowOrthFactor
		if f <= 0 {
			f = 1
		}
		return g.QRPerTensor * f * float64(r)
	}
	return g.QRPerTensor
}

// efFLOPs is the error-feedback update cost in FLOPs (P·Qᵀ plus the
// subtraction) for an n x m tensor at rank r.
func (b *builder) efFLOPs(n, m, r int) float64 {
	if !b.cfg.ef {
		return 0
	}
	return 2*float64(n*m*r) + float64(n*m)
}

// acpCompressDur is ACP-SGD's per-tensor, per-step compression: one
// orthogonalization of the reused factor, one matmul, and the EF update
// (half of Power-SGD's work, §IV-A).
func (b *builder) acpCompressDur(t tensorInfo) float64 {
	g := b.cfg.GPU
	n, m, r := t.spec.Rows, t.spec.Cols, t.rEff
	orthDim := m // odd step orthogonalizes Q (m x r)
	if b.cfg.parity == 1 {
		orthDim = n
	}
	flops := 2*float64(n*m*r) + 2*float64(orthDim*r*r) + b.efFLOPs(n, m, r)
	return flops/g.LowRankFLOPS + b.qrCost(r) + 3*g.KernelLaunch
}

// acpDecompressDur is the P·Qᵀ reconstruction.
func (b *builder) acpDecompressDur(t tensorInfo) float64 {
	g := b.cfg.GPU
	flops := 2 * float64(t.spec.Rows*t.spec.Cols*t.rEff)
	return flops/g.LowRankFLOPS + g.KernelLaunch
}

// Power-SGD's three compute stages per tensor (Algorithm 1): compute P;
// orthogonalize+compute Q (+EF); decompress.
func (b *builder) powerStage1Dur(t tensorInfo) float64 {
	g := b.cfg.GPU
	return 2*float64(t.spec.Rows*t.spec.Cols*t.rEff)/g.LowRankFLOPS + g.KernelLaunch
}

func (b *builder) powerStage2Dur(t tensorInfo) float64 {
	g := b.cfg.GPU
	n, m, r := t.spec.Rows, t.spec.Cols, t.rEff
	flops := 2*float64(n*r*r) + 2*float64(n*m*r) + b.efFLOPs(n, m, r)
	return flops/g.LowRankFLOPS + b.qrCost(r) + 2*g.KernelLaunch
}

func (b *builder) powerStage3Dur(t tensorInfo) float64 {
	return b.acpDecompressDur(t)
}

// signEncodeDur / signDecodeDur: pack N sign bits; majority-vote over p
// workers' packed payloads.
func (b *builder) signEncodeDur(elems int) float64 {
	g := b.cfg.GPU
	return float64(elems)/g.SignThroughput + g.KernelLaunch
}

func (b *builder) signDecodeDur(elems int) float64 {
	g := b.cfg.GPU
	votes := float64(b.cfg.Workers) / 32
	if votes < 1 {
		votes = 1
	}
	return float64(elems)*votes/g.SignThroughput + g.KernelLaunch
}

// topkEncodeDur / topkDecodeDur: multi-sampling threshold selection scans
// the full tensor; decode scatter-adds p*k pairs.
func (b *builder) topkEncodeDur(elems int) float64 {
	g := b.cfg.GPU
	return float64(elems)/g.TopKThroughput + g.KernelLaunch
}

func (b *builder) topkDecodeDur(elems int) float64 {
	g := b.cfg.GPU
	k := float64(elems) * b.cfg.ratio
	return float64(b.cfg.Workers)*k/g.SignThroughput + g.KernelLaunch
}

// ---- payloads ----------------------------------------------------------

// rawPayload is the uncompressed fp32 tensor.
func rawPayload(_ *builder, t tensorInfo) float64 { return 4 * float64(t.spec.Elems()) }

// signPayload packs one bit per element.
func signPayload(_ *builder, t tensorInfo) float64 { return float64(t.spec.Elems()) / 8 }

// topkPayload ships k (index, value) pairs.
func topkPayload(b *builder, t tensorInfo) float64 {
	k := float64(t.spec.Elems()) * b.cfg.ratio
	if k < 1 {
		k = 1
	}
	return 8 * k
}

// acpPayload ships P (odd steps) or Q (even steps) for matrices, vectors raw.
func acpPayload(b *builder, t tensorInfo) float64 {
	if !t.isMatrix {
		return rawPayload(b, t)
	}
	if b.cfg.parity == 0 {
		return 4 * float64(t.rEff*t.spec.Rows)
	}
	return 4 * float64(t.rEff*t.spec.Cols)
}

// deferCommAfterBackward retrofits the Overlap=off schedule onto a built
// task graph: every network task and every side-stream pipeline task gains
// the final backward task as an extra dependency, so nothing launches until
// back-propagation completes. Bucketing (and therefore message sizes and
// counts) is untouched — this is exactly the launch-deferral the trainer's
// Overlap knob performs, the term that turns overlapped communication into
// non-overlapped step time.
func (b *builder) deferCommAfterBackward() {
	var lastBwd *task
	for _, t := range b.eng.streams[mainStream] {
		if t.kind == kindFwdBwd {
			lastBwd = t
		}
	}
	if lastBwd == nil {
		return
	}
	for _, t := range b.eng.streams[netStream] {
		t.deps = append(t.deps, lastBwd)
	}
	for _, t := range b.eng.streams[sideStream] {
		t.deps = append(t.deps, lastBwd)
	}
}

// chunks resolves the pipelining degree: 1 when the knob is off.
func (b *builder) chunks() int {
	if b.cfg.PipelineChunks > 1 {
		return b.cfg.PipelineChunks
	}
	return 1
}

// allReduce appends an all-reduce task for `bytes` and records the payload.
func (b *builder) allReduce(bytes float64, deps ...*task) *task {
	b.payloadBytes += bytes
	return b.eng.add(netStream, kindComm, b.cfg.Net.AllReduceTime(b.cfg.Workers, bytes), deps...)
}

// allReduceChunked appends the bucket's all-reduce as PipelineChunks
// per-chunk tasks (in order on the network stream) and returns the last —
// the pipelined ring: same volume, one extra alpha set per chunk, finer
// overlap with whatever else is runnable. With chunking off it is a plain
// allReduce.
func (b *builder) allReduceChunked(bytes float64, deps ...*task) *task {
	m := b.chunks()
	if m == 1 {
		return b.allReduce(bytes, deps...)
	}
	var last *task
	for c := 0; c < m; c++ {
		last = b.allReduce(bytes/float64(m), deps...)
	}
	return last
}

// allGather appends an all-gather task for a per-worker payload of `bytes`.
func (b *builder) allGather(bytes float64, deps ...*task) *task {
	b.payloadBytes += bytes
	return b.eng.add(netStream, kindComm, b.cfg.Net.AllGatherTime(b.cfg.Workers, bytes), deps...)
}

// addForward queues the forward pass.
func (b *builder) addForward() *task {
	return b.eng.add(mainStream, kindFwdBwd, b.fwdDur)
}

// shouldFlush decides fusion-buffer boundaries. A zero budget disables
// tensor fusion entirely: every tensor ships in its own collective (the
// paper's "buffer size 0MB, optimal WFBP, no TF" extreme).
func shouldFlush(budget, bucketBytes float64) bool {
	if budget <= 0 {
		return bucketBytes > 0
	}
	return bucketBytes >= budget
}

// ---- S-SGD ------------------------------------------------------------

func (b *builder) buildSSGD() {
	b.addForward()
	switch b.cfg.Mode {
	case ModeNaive:
		// Tensor-wise aggregation strictly after back-propagation: no
		// overlap, no fusion (Fig. 9's "Naive", i.e. Fig. 1(a)).
		var last *task
		for _, t := range b.tensors {
			last = b.eng.add(mainStream, kindFwdBwd, t.bwdDur)
		}
		for _, t := range b.tensors {
			b.allReduce(b.cfg.cost.payload(b, t), last)
		}
	default:
		budget := b.cfg.bufferBudget(1)
		var bucketBytes float64
		var lastBwd *task
		flush := func() {
			if bucketBytes > 0 {
				b.allReduceChunked(bucketBytes, lastBwd)
				bucketBytes = 0
			}
		}
		for _, t := range b.tensors {
			lastBwd = b.eng.add(mainStream, kindFwdBwd, t.bwdDur)
			bucketBytes += b.cfg.cost.payload(b, t)
			if shouldFlush(budget, bucketBytes) {
				flush()
			}
		}
		flush()
	}
}

// ---- Sign-SGD / Top-k SGD ----------------------------------------------

func (b *builder) buildGather() {
	b.addForward()
	switch b.cfg.Mode {
	case ModeNaive:
		var last *task
		elems := 0
		bytes := 0.0
		for _, t := range b.tensors {
			last = b.eng.add(mainStream, kindFwdBwd, t.bwdDur)
			elems += t.spec.Elems()
			bytes += b.cfg.cost.payload(b, t)
		}
		enc := b.eng.add(mainStream, kindEncode, b.cfg.cost.encode(b, elems), last)
		ag := b.allGather(bytes, enc)
		b.eng.add(mainStream, kindDecode, b.cfg.cost.decode(b, elems), ag)
	default:
		budget := b.cfg.bufferBudget(1)
		m := b.chunks()
		type bucket struct {
			comm  []*task // per-chunk all-gather tasks
			elems int
		}
		var buckets []bucket
		var bucketBytes float64
		bucketElems := 0
		flush := func() {
			if bucketElems == 0 {
				return
			}
			// Chunk pipeline inside the bucket: encode chunk c (main stream,
			// inline with backward), all-gather chunk c, and later decode
			// chunk c as soon as it lands — so chunk c's decode overlaps
			// chunk c+1's wire time while every chunk pays its own hop
			// alphas and kernel launches. m == 1 is the unpipelined graph.
			// Chunk element counts use the exact chunkRange-style split so
			// compute cost never truncates away at high chunk counts.
			bk := bucket{elems: bucketElems}
			for c := 0; c < m; c++ {
				chunkElems := (c+1)*bucketElems/m - c*bucketElems/m
				enc := b.eng.add(mainStream, kindEncode, b.cfg.cost.encode(b, chunkElems))
				bk.comm = append(bk.comm, b.allGather(bucketBytes/float64(m), enc))
			}
			buckets = append(buckets, bk)
			bucketBytes = 0
			bucketElems = 0
		}
		for _, t := range b.tensors {
			b.eng.add(mainStream, kindFwdBwd, t.bwdDur)
			bucketBytes += b.cfg.cost.payload(b, t)
			bucketElems += t.spec.Elems()
			if shouldFlush(budget, bucketBytes) {
				flush()
			}
		}
		flush()
		for _, bk := range buckets {
			mm := len(bk.comm)
			for c, ag := range bk.comm {
				chunkElems := (c+1)*bk.elems/mm - c*bk.elems/mm
				b.eng.add(mainStream, kindDecode, b.cfg.cost.decode(b, chunkElems), ag)
			}
		}
	}
}

// ---- ACP-SGD ------------------------------------------------------------

// acpRate is the payload compression rate that scales the fusion budget
// (§IV-B: compressed buffer size = default buffer size x compression rate).
func (b *builder) acpRate() float64 {
	spec := b.cfg.Model
	odd := b.cfg.parity == 0
	return float64(spec.ACPPayloadElems(b.cfg.rank, odd)) / float64(spec.NumParams())
}

func (b *builder) buildACP() {
	b.addForward()
	switch b.cfg.Mode {
	case ModeNaive:
		// Compress everything after back-propagation, then aggregate
		// tensor-wise without overlap, then decompress.
		var last *task
		var compressDur, decompressDur float64
		for _, t := range b.tensors {
			last = b.eng.add(mainStream, kindFwdBwd, t.bwdDur)
			if t.isMatrix {
				compressDur += b.acpCompressDur(t)
				decompressDur += b.acpDecompressDur(t)
			}
		}
		comp := b.eng.add(mainStream, kindEncode, compressDur, last)
		var lastAR *task
		for _, t := range b.tensors {
			lastAR = b.allReduce(b.cfg.cost.payload(b, t), comp)
		}
		b.eng.add(mainStream, kindDecode, decompressDur, lastAR)
	default:
		budget := b.cfg.bufferBudget(b.acpRate())
		type bucket struct {
			comm          *task
			decompressDur float64
		}
		var buckets []bucket
		var bucketBytes, bucketDecomp float64
		var lastMain *task
		flush := func() {
			if bucketBytes == 0 {
				return
			}
			// The pipelined ring splits the bucket's all-reduce; the P·Qᵀ
			// reconstruction still waits for the whole bucket, mirroring the
			// trainer (additive finalize is not chunked).
			ar := b.allReduceChunked(bucketBytes, lastMain)
			buckets = append(buckets, bucket{comm: ar, decompressDur: bucketDecomp})
			bucketBytes = 0
			bucketDecomp = 0
		}
		for _, t := range b.tensors {
			lastMain = b.eng.add(mainStream, kindFwdBwd, t.bwdDur)
			if t.isMatrix {
				// Inline compression on the main stream right after the
				// gradient is ready (Fig. 4(c)): sequential with BP, no
				// stream interference.
				lastMain = b.eng.add(mainStream, kindEncode, b.acpCompressDur(t))
				bucketDecomp += b.acpDecompressDur(t)
			}
			bucketBytes += b.cfg.cost.payload(b, t)
			if shouldFlush(budget, bucketBytes) {
				flush()
			}
		}
		flush()
		for _, bk := range buckets {
			b.eng.add(mainStream, kindDecode, bk.decompressDur, bk.comm)
		}
	}
}

// ---- Power-SGD ------------------------------------------------------------

// shapeKey groups matrix tensors by shape — the original Power-SGD
// implementation batches same-shape matrices for aggregation.
type shapeKey struct{ n, m int }

func (b *builder) buildPower() {
	b.addForward()
	p := b.cfg.Workers
	_ = p
	switch b.cfg.Mode {
	case ModeNaive:
		// Original Power-SGD [24]: all compression after BP; per shape
		// group aggregation of P, then of Q; vectors aggregated raw.
		var last *task
		var stage1, stage2, stage3, vecBytes float64
		groupP := map[shapeKey]float64{}
		groupQ := map[shapeKey]float64{}
		var order []shapeKey
		for _, t := range b.tensors {
			last = b.eng.add(mainStream, kindFwdBwd, t.bwdDur)
			if !t.isMatrix {
				vecBytes += 4 * float64(t.spec.Elems())
				continue
			}
			stage1 += b.powerStage1Dur(t)
			stage2 += b.powerStage2Dur(t)
			stage3 += b.powerStage3Dur(t)
			k := shapeKey{t.spec.Rows, t.spec.Cols}
			if _, ok := groupP[k]; !ok {
				order = append(order, k)
			}
			groupP[k] += 4 * float64(t.rEff*t.spec.Rows)
			groupQ[k] += 4 * float64(t.rEff*t.spec.Cols)
		}
		if vecBytes > 0 {
			b.allReduce(vecBytes, last)
		}
		s1 := b.eng.add(mainStream, kindEncode, stage1, last)
		var arPs []*task
		for _, k := range order {
			arPs = append(arPs, b.allReduce(groupP[k], s1))
		}
		s2 := b.eng.add(mainStream, kindEncode, stage2, arPs...)
		var arQs []*task
		for _, k := range order {
			arQs = append(arQs, b.allReduce(groupQ[k], s2))
		}
		b.eng.add(mainStream, kindDecode, stage3, arQs...)
	default:
		// Power-SGD* (PyTorch DDP comm hook): buckets of raw gradient
		// bytes; per bucket the blocking chain P-compute → all-reduce P →
		// orthogonalize+Q-compute → all-reduce Q → decompress runs on the
		// side compute stream, competing with back-propagation (§III-C,
		// Fig. 4(b)).
		budget := b.cfg.bufferBudget(1)
		var rawB, pBytes, qBytes, vecBytes float64
		var s1d, s2d, s3d float64
		var lastBwd *task
		flush := func() {
			if rawB == 0 {
				return
			}
			if vecBytes > 0 {
				b.allReduce(vecBytes, lastBwd)
			}
			if pBytes > 0 {
				s1 := b.eng.add(sideStream, kindEncode, s1d, lastBwd)
				arp := b.allReduce(pBytes, s1)
				s2 := b.eng.add(sideStream, kindEncode, s2d, arp)
				arq := b.allReduce(qBytes, s2)
				b.eng.add(sideStream, kindDecode, s3d, arq)
			}
			rawB, pBytes, qBytes, vecBytes = 0, 0, 0, 0
			s1d, s2d, s3d = 0, 0, 0
		}
		for _, t := range b.tensors {
			lastBwd = b.eng.add(mainStream, kindFwdBwd, t.bwdDur)
			rawB += 4 * float64(t.spec.Elems())
			if t.isMatrix {
				pBytes += 4 * float64(t.rEff*t.spec.Rows)
				qBytes += 4 * float64(t.rEff*t.spec.Cols)
				s1d += b.powerStage1Dur(t)
				s2d += b.powerStage2Dur(t)
				s3d += b.powerStage3Dur(t)
			} else {
				vecBytes += 4 * float64(t.spec.Elems())
			}
			if shouldFlush(budget, rawB) {
				flush()
			}
		}
		flush()
	}
}

// ---- memory model ----------------------------------------------------

// estimateMemory reproduces the Fig. 2 OOM: Sign-SGD's majority-vote decode
// materializes every worker's unpacked sign tensor (p x N bytes), which
// exhausts an 11GB GPU on BERT-Large at p=32.
func estimateMemory(cfg *Config) float64 {
	n := float64(cfg.Model.NumParams())
	base := 3*4*n + // params + grads + momentum (fp32)
		float64(cfg.batch())*cfg.Model.ActBytesPerExample +
		0.8e9 // CUDA context + framework overhead
	if cfg.cost.memory == nil {
		return base
	}
	return cfg.cost.memory(cfg, base)
}

func signMemory(cfg *Config, base float64) float64 {
	n := float64(cfg.Model.NumParams())
	return base + 4*n + // error feedback
		float64(cfg.Workers)*n // unpacked vote workspace (1 byte/elem/worker)
}

func topkMemory(cfg *Config, base float64) float64 {
	n := float64(cfg.Model.NumParams())
	k := n * cfg.ratio
	return base + 4*n + float64(cfg.Workers)*8*k
}

func lowRankMemory(cfg *Config, base float64) float64 {
	n := float64(cfg.Model.NumParams())
	return base + 4*n + // error feedback
		8*float64(cfg.Model.PowerCompressedElems(cfg.rank))
}
