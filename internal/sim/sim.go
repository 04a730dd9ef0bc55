package sim

import (
	"fmt"
	"sort"
	"strings"

	"acpsgd/internal/compress"
	"acpsgd/internal/models"
)

// Mode selects the system-optimization level (Fig. 9's three variants).
type Mode int

// Execution modes.
const (
	// ModeNaive runs all aggregation after back-propagation, fully packed
	// (for Power-SGD this is the original implementation, which batches
	// compression post-BP; for S-SGD it is one fused post-BP all-reduce).
	ModeNaive Mode = iota + 1
	// ModeWFBP overlaps per-tensor communication with back-propagation but
	// performs no tensor fusion.
	ModeWFBP
	// ModeWFBPTF adds byte-budgeted tensor fusion (the paper's fully
	// optimized configuration; Power-SGD in this mode is "Power-SGD*").
	ModeWFBPTF
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeNaive:
		return "Naive"
	case ModeWFBP:
		return "WFBP"
	case ModeWFBPTF:
		return "WFBP+TF"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// DefaultBufferBytes is the 25MB PyTorch-DDP fusion budget (§IV-B).
const DefaultBufferBytes = 25 * 1024 * 1024

// Config describes one simulated iteration.
type Config struct {
	Model *models.ModelSpec
	// Spec is the method in the compressor registry's grammar (see
	// compress.ParseSpec); Names lists the methods with a cost model. The
	// model reads three params: "rank" (unset → the model's paper default),
	// "ratio" (unset → the paper's 0.1%) and "ef" (unset → true; false
	// drops the error-feedback compute, a cost ablation).
	Spec compress.Spec
	// Mode is the execution mode (0 → the paper's default for the method).
	Mode    Mode
	Workers int
	// Batch is the per-GPU batch size (0 → the model's paper default).
	Batch int
	Net   Network
	GPU   GPU
	// BufferBytes is the fusion budget for ModeWFBPTF (0 → 25MB).
	BufferBytes int
	// NoFusion forces per-tensor communication even in ModeWFBPTF
	// (Fig. 10's "buffer size 0MB" point).
	NoFusion bool
	// SlowOrth uses the original Power-SGD orthogonalization cost (the
	// §III baseline) instead of reduced QR.
	SlowOrth bool
	// NoOverlap defers every collective (and post-backward pipeline stage)
	// until the full backward pass has finished while keeping the mode's
	// bucketing — the same schedule train.Config's Overlap=off selects, so
	// predicted and measured step times compare like for like. It differs
	// from ModeNaive, which also changes how tensors are packed.
	NoOverlap bool
	// PipelineChunks mirrors train.Config.PipelineChunks in the cost model:
	// each fusion bucket's collective (and, for the gather methods, its
	// encode/decode) splits into PipelineChunks per-chunk tasks, so chunk
	// c's decode overlaps chunk c+1's wire time while every chunk pays its
	// own alpha (ring-hop latency) term — the paper's pipelining trade-off
	// (§III-B). 0 (or 1) keeps the unpipelined task graph. Applies to the
	// WFBP modes (ModeNaive has no per-bucket pipeline to chunk).
	PipelineChunks int

	// Resolved by validate from Spec.
	cost  *costModel
	rank  int
	ratio float64
	ef    bool
	// parity selects ACP's P step (0) or Q step (1); Simulate averages
	// both automatically.
	parity int
}

// Result is one simulated iteration with the paper's breakdown metrics.
type Result struct {
	TotalSec    float64
	FFBPSec     float64
	CompressSec float64
	CommSec     float64 // non-overlapped (exposed) communication
	// EncodeSec and DecodeSec split CompressSec into its two wire sides:
	// encode is every compression kernel that runs before the collective
	// (pack, selection, low-rank factor compute, EF fold), decode everything
	// after it (vote, scatter-add, P·Qᵀ reconstruction). They sum to
	// CompressSec.
	EncodeSec float64
	DecodeSec float64
	// WireSec is the total time the network was busy, overlapped or not;
	// WireSec - CommSec is the communication the schedule hid under compute.
	WireSec        float64
	OOM            bool
	MemoryBytes    float64
	PayloadBytes   float64 // per-iteration communicated payload per worker
	CompressionRat float64 // raw bytes / payload bytes
}

func (cfg *Config) validate() error {
	if cfg.Model == nil {
		return fmt.Errorf("sim: nil model")
	}
	if cfg.Workers < 1 {
		return fmt.Errorf("sim: workers must be >= 1, got %d", cfg.Workers)
	}
	spec, cost, err := resolveMethod(cfg.Spec)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	cfg.cost = cost
	// Resolve has validated every param the method declares.
	cfg.rank, _ = spec.Params.Int("rank", cfg.Model.DefaultRank)
	cfg.ratio, _ = spec.Params.Float("ratio", 0.001)
	cfg.ef, _ = spec.Params.Bool("ef", true)
	if cfg.Mode == 0 {
		cfg.Mode = cost.mode
	}
	switch cfg.Mode {
	case ModeNaive, ModeWFBP, ModeWFBPTF:
	default:
		return fmt.Errorf("sim: unknown mode %v", cfg.Mode)
	}
	if cfg.Net.Bandwidth <= 0 && cfg.Workers > 1 {
		return fmt.Errorf("sim: network not configured")
	}
	if cfg.PipelineChunks < 0 {
		return fmt.Errorf("sim: pipeline chunks must be >= 0, got %d", cfg.PipelineChunks)
	}
	return nil
}

func (cfg *Config) batch() int {
	if cfg.Batch > 0 {
		return cfg.Batch
	}
	return cfg.Model.DefaultBatch
}

// resolveMethod resolves a spec against the compressor registry (aliases,
// param validation) and then against the cost models.
func resolveMethod(spec compress.Spec) (compress.Spec, *costModel, error) {
	if spec.Name == "" {
		return compress.Spec{}, nil, fmt.Errorf("no method spec (simulatable: %s)", strings.Join(Names(), ", "))
	}
	_, spec, err := compress.Resolve(spec)
	if err != nil {
		return compress.Spec{}, nil, err
	}
	cost, ok := costModels[spec.Name]
	if !ok {
		return compress.Spec{}, nil, fmt.Errorf("method %q has no cost model (simulatable: %s)",
			spec.Name, strings.Join(Names(), ", "))
	}
	return spec, cost, nil
}

// Names returns the simulatable method names, sorted.
func Names() []string {
	out := make([]string, 0, len(costModels))
	for name := range costModels {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// bufferBudget resolves the fusion budget in bytes for the given payload
// compression rate (ACP scales the default budget by the compression rate,
// §IV-B; rate is 1 for uncompressed streams).
func (cfg *Config) bufferBudget(rate float64) float64 {
	if cfg.Mode == ModeWFBP || cfg.NoFusion {
		return 0
	}
	base := float64(cfg.BufferBytes)
	if base <= 0 {
		base = DefaultBufferBytes
	}
	b := base * rate
	if b < 1 {
		b = 1
	}
	return b
}

// Simulate runs one iteration and returns the time breakdown. ACP-SGD is
// simulated for both alternation parities and averaged, matching the
// paper's average-iteration-time metric.
func Simulate(cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	mem := estimateMemory(&cfg)
	if mem > cfg.GPU.MemoryBytes && cfg.GPU.MemoryBytes > 0 {
		return Result{OOM: true, MemoryBytes: mem}, nil
	}
	if cfg.cost.alternates {
		cfg.parity = 0
		a, err := simulateOnce(&cfg)
		if err != nil {
			return Result{}, err
		}
		cfg.parity = 1
		b, err := simulateOnce(&cfg)
		if err != nil {
			return Result{}, err
		}
		avg := Result{
			TotalSec:     (a.TotalSec + b.TotalSec) / 2,
			FFBPSec:      (a.FFBPSec + b.FFBPSec) / 2,
			CompressSec:  (a.CompressSec + b.CompressSec) / 2,
			CommSec:      (a.CommSec + b.CommSec) / 2,
			EncodeSec:    (a.EncodeSec + b.EncodeSec) / 2,
			DecodeSec:    (a.DecodeSec + b.DecodeSec) / 2,
			WireSec:      (a.WireSec + b.WireSec) / 2,
			PayloadBytes: (a.PayloadBytes + b.PayloadBytes) / 2,
			MemoryBytes:  mem,
		}
		avg.CompressionRat = rawBytes(cfg.Model) / avg.PayloadBytes
		return avg, nil
	}
	r, err := simulateOnce(&cfg)
	if err != nil {
		return Result{}, err
	}
	r.MemoryBytes = mem
	r.CompressionRat = rawBytes(cfg.Model) / r.PayloadBytes
	return r, nil
}

// rawBytes is the uncompressed fp32 gradient volume.
func rawBytes(m *models.ModelSpec) float64 { return 4 * float64(m.NumParams()) }

func simulateOnce(cfg *Config) (Result, error) {
	b := newBuilder(cfg)
	cfg.cost.build(b)
	if cfg.NoOverlap {
		b.deferCommAfterBackward()
	}
	acct, err := b.eng.run()
	b.eng.release()
	b.eng = nil
	if err != nil {
		return Result{}, err
	}
	return Result{
		TotalSec:     acct.Total,
		FFBPSec:      acct.FFBP,
		CompressSec:  acct.Compress,
		CommSec:      acct.CommNonOverlap,
		EncodeSec:    acct.Encode,
		DecodeSec:    acct.Decode,
		WireSec:      acct.CommTotal,
		PayloadBytes: b.payloadBytes,
	}, nil
}
