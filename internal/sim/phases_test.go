package sim

import (
	"math"
	"testing"

	"acpsgd/internal/compress"
	"acpsgd/internal/models"
)

// These tests pin the per-phase split added to Result: EncodeSec and
// DecodeSec partition CompressSec for every real method graph, and WireSec
// (total network busy time) dominates CommSec (the exposed remainder).

func phaseCases() []struct {
	name   string
	method string
	mode   Mode
} {
	return []struct {
		name   string
		method string
		mode   Mode
	}{
		{"ssgd-naive", "ssgd", ModeNaive},
		{"ssgd-tf", "ssgd", ModeWFBPTF},
		{"sign-naive", "sign", ModeNaive},
		{"topk-naive", "topk", ModeNaive},
		{"power-naive", "power", ModeNaive},
		{"power-tf", "power", ModeWFBPTF},
		{"acp-naive", "acp", ModeNaive},
		{"acp-wfbp", "acp", ModeWFBP},
		{"acp-tf", "acp", ModeWFBPTF},
	}
}

func TestEncodeDecodePartitionCompress(t *testing.T) {
	for _, tc := range phaseCases() {
		r := simulate(t, func(c *Config) {
			c.Model = models.BERTBase()
			c.Spec = compress.MustSpec(tc.method)
			c.Mode = tc.mode
		})
		if r.OOM {
			continue
		}
		sum := r.EncodeSec + r.DecodeSec
		if math.Abs(sum-r.CompressSec) > 1e-9 {
			t.Fatalf("%s: encode (%v) + decode (%v) != compress (%v)", tc.name, r.EncodeSec, r.DecodeSec, r.CompressSec)
		}
		if r.EncodeSec < 0 || r.DecodeSec < 0 {
			t.Fatalf("%s: negative phase time: %+v", tc.name, r)
		}
		if tc.method == "ssgd" && sum != 0 {
			t.Fatalf("%s: S-SGD has no compression phases, got %v", tc.name, sum)
		}
		if tc.method != "ssgd" && (r.EncodeSec == 0 || r.DecodeSec == 0) {
			t.Fatalf("%s: compressed method must pay both encode and decode: %+v", tc.name, r)
		}
	}
}

func TestWireSecDominatesExposedComm(t *testing.T) {
	for _, tc := range phaseCases() {
		r := simulate(t, func(c *Config) {
			c.Model = models.BERTBase()
			c.Spec = compress.MustSpec(tc.method)
			c.Mode = tc.mode
		})
		if r.OOM {
			continue
		}
		if r.WireSec < r.CommSec-1e-9 {
			t.Fatalf("%s: wire time %v below exposed comm %v", tc.name, r.WireSec, r.CommSec)
		}
		if r.WireSec <= 0 {
			t.Fatalf("%s: multi-worker run must use the wire", tc.name)
		}
	}
}

func TestNaiveModeExposesAllWireTime(t *testing.T) {
	// Without overlap every wire second is exposed: the naive schedule runs
	// compute, then compression, then communication strictly in sequence.
	r := simulate(t, func(c *Config) {
		c.Model = models.ResNet50()
		c.Spec = compress.MustSpec("ssgd")
		c.Mode = ModeNaive
	})
	if math.Abs(r.WireSec-r.CommSec) > 1e-9 {
		t.Fatalf("naive S-SGD should hide nothing: wire %v vs exposed %v", r.WireSec, r.CommSec)
	}
}

func TestOverlapHidesWireTime(t *testing.T) {
	// WFBP+TF overlaps communication under backprop: some wire time must be
	// hidden (WireSec > CommSec), and the hidden share is what the paper's
	// optimized S-SGD gains.
	r := simulate(t, func(c *Config) {
		c.Model = models.ResNet50()
		c.Spec = compress.MustSpec("ssgd")
		c.Mode = ModeWFBPTF
	})
	if r.WireSec <= r.CommSec {
		t.Fatalf("overlap should hide wire time: wire %v vs exposed %v", r.WireSec, r.CommSec)
	}
}

func TestEncodeOutweighsDecodeForLowRank(t *testing.T) {
	// Power/ACP encode does two GEMMs plus an orthogonalization; decode is a
	// single small GEMM. The split must reflect that asymmetry.
	for _, method := range []string{"power", "acp"} {
		r := simulate(t, func(c *Config) {
			c.Model = models.BERTLarge()
			c.Spec = compress.MustSpec(method)
			c.Mode = ModeNaive
		})
		if r.EncodeSec <= r.DecodeSec {
			t.Fatalf("%v: encode (%v) should outweigh decode (%v)", method, r.EncodeSec, r.DecodeSec)
		}
	}
}

func TestPhaseSplitSurvivesPipelining(t *testing.T) {
	// Chunk pipelining rearranges the schedule but not the work: the
	// partition invariant must hold with pipeline chunks enabled too.
	r := simulate(t, func(c *Config) {
		c.Model = models.BERTLarge()
		c.Spec = compress.MustSpec("acp")
		c.Mode = ModeWFBPTF
		c.PipelineChunks = 4
	})
	if math.Abs(r.EncodeSec+r.DecodeSec-r.CompressSec) > 1e-9 {
		t.Fatalf("pipelined split broken: %+v", r)
	}
	if r.WireSec < r.CommSec-1e-9 {
		t.Fatalf("pipelined wire accounting broken: %+v", r)
	}
}
