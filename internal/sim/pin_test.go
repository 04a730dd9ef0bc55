package sim_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"acpsgd/internal/compress"
	"acpsgd/internal/exp"
	"acpsgd/internal/models"
	"acpsgd/internal/sim"
)

// The cost-model pin: every sim.Result field, printed exactly, over the
// full grid of models × methods × modes × networks × pipeline chunks ×
// overlap, the rank/ratio/error-feedback variants, and the rendered
// pure-simulation experiment tables. sim_test.go and the exp tests check
// orderings and shapes only; this file is what catches a change in any
// number. Regenerate deliberately with:
//
//	go test ./internal/sim -run TestCostModelPinned -update

var pinModels = []string{"resnet50", "resnet152", "bert-base", "bert-large", "vgg16", "resnet18"}

var pinNets = []string{"1gbe", "10gbe", "100gbib"}

// pinConfig is the paper's 32-worker cluster running one method with the
// given parameters; zero values leave the simulator's defaults in place.
func pinConfig(model, method string, rank int, ratio float64, noEF bool) (sim.Config, error) {
	m, err := models.ByName(model)
	if err != nil {
		return sim.Config{}, err
	}
	spec := compress.Spec{Name: method}
	if rank > 0 {
		spec = spec.With("rank", strconv.Itoa(rank))
	}
	if ratio > 0 {
		spec = spec.With("ratio", strconv.FormatFloat(ratio, 'g', -1, 64))
	}
	if noEF {
		spec = spec.With("ef", "false")
	}
	return sim.Config{Model: m, Spec: spec, Workers: 32, GPU: sim.DefaultGPU()}, nil
}

// pinResult renders every Result field bit-exactly.
func pinResult(r sim.Result) string {
	return fmt.Sprintf("total=%.17g ffbp=%.17g compress=%.17g comm=%.17g encode=%.17g decode=%.17g wire=%.17g oom=%t mem=%.17g payload=%.17g ratio=%.17g",
		r.TotalSec, r.FFBPSec, r.CompressSec, r.CommSec, r.EncodeSec, r.DecodeSec,
		r.WireSec, r.OOM, r.MemoryBytes, r.PayloadBytes, r.CompressionRat)
}

func TestCostModelPinned(t *testing.T) {
	var out bytes.Buffer
	line := func(key string, cfg sim.Config) {
		r, err := sim.Simulate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		fmt.Fprintf(&out, "%s %s\n", key, pinResult(r))
	}
	modes := []sim.Mode{sim.ModeNaive, sim.ModeWFBP, sim.ModeWFBPTF}
	methods := []string{"ssgd", "sign", "topk", "power", "acp"}

	for _, model := range pinModels {
		for _, method := range methods {
			for _, mode := range modes {
				for _, netName := range pinNets {
					for _, chunks := range []int{0, 4} {
						for _, noOverlap := range []bool{false, true} {
							cfg, err := pinConfig(model, method, 0, 0, false)
							if err != nil {
								t.Fatal(err)
							}
							cfg.Mode = mode
							cfg.Net, _ = sim.NetByName(netName)
							cfg.PipelineChunks = chunks
							cfg.NoOverlap = noOverlap
							line(fmt.Sprintf("grid %s %s %s %s chunks=%d overlap=%t",
								model, method, mode, netName, chunks, !noOverlap), cfg)
						}
					}
				}
			}
		}
	}

	type variant struct {
		method string
		rank   int
		ratio  float64
		noEF   bool
	}
	var variants []variant
	for _, rank := range []int{1, 4, 32, 64, 128, 256} {
		variants = append(variants, variant{method: "acp", rank: rank}, variant{method: "power", rank: rank})
	}
	for _, ratio := range []float64{0.0001, 0.01, 0.1} {
		variants = append(variants, variant{method: "topk", ratio: ratio})
	}
	variants = append(variants,
		variant{method: "acp", noEF: true},
		variant{method: "power", noEF: true},
		variant{method: "acp", rank: 256, noEF: true},
		variant{method: "sign", noEF: true},
		variant{method: "topk", noEF: true},
	)
	for _, model := range []string{"resnet50", "bert-large"} {
		for _, v := range variants {
			for _, mode := range modes {
				for _, chunks := range []int{0, 4} {
					cfg, err := pinConfig(model, v.method, v.rank, v.ratio, v.noEF)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Mode = mode
					cfg.Net = sim.Net10GbE()
					cfg.PipelineChunks = chunks
					line(fmt.Sprintf("variant %s %s rank=%d ratio=%g ef=%t %s chunks=%d",
						model, v.method, v.rank, v.ratio, !v.noEF, mode, chunks), cfg)
				}
			}
		}
	}

	for _, id := range []string{
		"table3", "fig2", "fig3", "fig8", "fig9", "fig10", "fig11a", "fig11b",
		"fig12", "fig13", "ablation-interference", "ablation-alpha",
	} {
		tab, err := exp.Run(id, exp.ConvOptions{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out.WriteString(tab.String())
	}

	golden := filepath.Join("testdata", "costmodel.golden")
	if f := flag.Lookup("update"); f != nil && f.Value.String() == "true" {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		gotLines := bytes.Split(out.Bytes(), []byte("\n"))
		wantLines := bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Fatalf("cost model drifted from %s at line %d:\ngot:  %s\nwant: %s", golden, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("cost model drifted from %s: got %d lines, want %d", golden, len(gotLines), len(wantLines))
	}
}
