package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the tests hold the program to.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	var declared, built []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		built = append(built, w.name)
	}
	sort.Strings(declared)
	sort.Strings(built)
	if strings.Join(declared, ",") != strings.Join(built, ",") {
		t.Fatalf("BENCHMARK.json declares workloads %v, the program has %v", declared, built)
	}
}

// TestEveryMetricPrinted runs every workload briefly in both passes, the
// traced one on a second seed, and checks that each metric BENCHMARK.json
// declares for the pass is printed by name with its unit and appears in
// the JSON result with the same unit, and that no other metric does.
func TestEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("trains every workload")
	}
	bf := loadBenchmarkFile(t)
	for _, w := range workloads {
		for _, pass := range []struct {
			name string
			seed int64
			run  func(*report, workload, int64, time.Duration) error
			want []metricDecl
		}{
			{"untraced", 1, endToEnd, bf.EndToEnd},
			{"traced", 2, perLayer, bf.PerLayer},
		} {
			t.Run(w.name+"/"+pass.name, func(t *testing.T) {
				var out bytes.Buffer
				rep := newReport(&out)
				if err := pass.run(rep, w, pass.seed, time.Second); err != nil {
					t.Fatal(err)
				}
				rep.finish()
				text := out.String()
				lines := strings.Split(strings.TrimSpace(text), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the JSON result: %v\n%s", err, text)
				}
				if res.Attempted < 1 {
					t.Errorf("attempted = %d", res.Attempted)
				}
				if len(res.Metrics) != len(pass.want) {
					t.Errorf("got %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(pass.want))
				}
				for _, m := range pass.want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("JSON metric %s = %+v, want unit %s", m.Name, got, m.Unit)
					}
					line := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(m.Name) +
						` +-?[0-9.e+-]+ ` + regexp.QuoteMeta(m.Unit) + `( |$)`)
					if !line.MatchString(text) {
						t.Errorf("metric %s with unit %s not printed:\n%s", m.Name, m.Unit, text)
					}
				}
			})
		}
	}
}

// TestExactCountsRepeat checks that the wire counts, the compression ratio
// and the loss digest repeat exactly for one seed, and that ACP-SGD moves
// less than a tenth of S-SGD's bytes per step on the same model: proof
// that the compressor ran.
func TestExactCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("trains every workload")
	}
	const seed = 7
	wireKB := map[string]float64{}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			type counts struct {
				bytes, msgs int64
				ratio       float64
				digest      uint64
			}
			var got [2]counts
			for i := range got {
				tr, err := runTrial(w, seed, 0, countSteps, &wireCounter{})
				if err != nil {
					t.Fatal(err)
				}
				lt, err := replayLayers(w, seed, 0)
				if err != nil {
					t.Fatal(err)
				}
				got[i] = counts{tr.wire.bytes, tr.wire.msgs, lt.ratio(), tr.digest}
			}
			if got[0] != got[1] {
				t.Fatalf("same seed, different counts: %+v vs %+v", got[0], got[1])
			}
			if got[0].bytes == 0 || got[0].msgs == 0 {
				t.Fatalf("no traffic counted: %+v", got[0])
			}
			wireKB[w.name] = float64(got[0].bytes) / countSteps / 1024
			t.Logf("%s: %.1f KiB/step, %d msgs over %d steps, ratio %.5f", w.name,
				wireKB[w.name], got[0].msgs, countSteps, got[0].ratio)
		})
	}
	acp, ssgd := wireKB["acp-slowlink"], wireKB["ssgd-tcp"]
	if acp <= 0 || ssgd <= 0 || acp*10 >= ssgd {
		t.Fatalf("ACP-SGD sends %.1f KiB/step, S-SGD %.1f KiB/step: want less than a tenth", acp, ssgd)
	}
}
