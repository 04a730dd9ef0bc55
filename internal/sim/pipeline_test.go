package sim

import (
	"testing"

	"acpsgd/internal/compress"
	"acpsgd/internal/models"
)

// TestPipelineChunksTerm: the per-chunk task-graph term must reproduce the
// paper's pipelining trade-off (§III-B) — chunking pays one alpha/launch set
// per chunk but lets a gather method's decode overlap later chunks' wire
// time — and must stay a pure graph refinement: chunks<=1 is exactly the
// unpipelined graph, payload volume never changes.
func TestPipelineChunksTerm(t *testing.T) {
	base := func(method string) Config {
		return Config{
			Model:   models.BERTBase(),
			Spec:    compress.MustSpec(method),
			Mode:    ModeWFBPTF,
			Workers: 32,
			Net:     Net10GbE(),
			GPU:     DefaultGPU(),
		}
	}

	// chunks=1 must be graph-identical to chunks=0.
	for _, method := range []string{"ssgd", "sign", "topk", "acp"} {
		cfg := base(method)
		plain, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.PipelineChunks = 1
		one, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if one.TotalSec != plain.TotalSec || one.PayloadBytes != plain.PayloadBytes {
			t.Fatalf("%v: chunks=1 differs from chunks=0: %.9f vs %.9f", method, one.TotalSec, plain.TotalSec)
		}
	}

	// Payload volume is invariant under chunking; only timing terms move.
	for _, method := range []string{"ssgd", "sign", "acp"} {
		cfg := base(method)
		plain, _ := Simulate(cfg)
		cfg.PipelineChunks = 8
		chunked, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if diff := chunked.PayloadBytes - plain.PayloadBytes; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("%v: chunking changed payload volume: %.1f vs %.1f", method, chunked.PayloadBytes, plain.PayloadBytes)
		}
	}

	// S-SGD has no encode/decode to hide: chunking only adds alpha terms, so
	// it must never be faster and must be strictly slower once alpha is
	// large.
	ssgd := base("ssgd")
	plain, _ := Simulate(ssgd)
	ssgd.PipelineChunks = 8
	chunked, _ := Simulate(ssgd)
	if chunked.TotalSec < plain.TotalSec-1e-9 {
		t.Fatalf("S-SGD chunking should not help: %.6f vs %.6f", chunked.TotalSec, plain.TotalSec)
	}
	slowNet := base("ssgd")
	slowNet.Net.Alpha = 1e-3
	slowPlain, _ := Simulate(slowNet)
	slowNet.PipelineChunks = 8
	slowChunked, _ := Simulate(slowNet)
	if slowChunked.TotalSec <= slowPlain.TotalSec {
		t.Fatalf("high-alpha S-SGD chunking should be strictly slower: %.6f vs %.6f",
			slowChunked.TotalSec, slowPlain.TotalSec)
	}

	// Sign-SGD's decode is what sits on the critical path after the last
	// gather (Han et al.'s end-to-end finding): with a low-alpha net, the
	// chunked graph overlaps decode with wire and must be strictly faster;
	// the exposed (non-overlapped) communication must not grow.
	sign := base("sign")
	sign.Net.Alpha = 1e-7
	signPlain, err := Simulate(sign)
	if err != nil {
		t.Fatal(err)
	}
	sign.PipelineChunks = 8
	signChunked, err := Simulate(sign)
	if err != nil {
		t.Fatal(err)
	}
	if signChunked.TotalSec >= signPlain.TotalSec {
		t.Fatalf("Sign-SGD chunking should hide decode behind wire: %.6f vs %.6f",
			signChunked.TotalSec, signPlain.TotalSec)
	}
	if signChunked.CommSec > signPlain.CommSec+1e-9 {
		t.Fatalf("Sign-SGD chunking exposed more comm: %.6f vs %.6f", signChunked.CommSec, signPlain.CommSec)
	}

	// The knob validates.
	bad := base("ssgd")
	bad.PipelineChunks = -1
	if _, err := Simulate(bad); err == nil {
		t.Fatal("negative PipelineChunks should be rejected")
	}
}
