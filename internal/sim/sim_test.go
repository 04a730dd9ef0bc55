package sim

import (
	"strconv"
	"strings"
	"testing"

	"acpsgd/internal/compress"
	"acpsgd/internal/models"
)

// simulate is a test helper with the paper's default cluster (32 workers,
// 10GbE) unless overridden.
func simulate(t *testing.T, mutate func(*Config)) Result {
	t.Helper()
	cfg := Config{
		Model:   models.ResNet50(),
		Spec:    compress.MustSpec("ssgd"),
		Mode:    ModeWFBPTF,
		Workers: 32,
		Net:     Net10GbE(),
		GPU:     DefaultGPU(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func tableIIICell(t *testing.T, m *models.ModelSpec, method string, mode Mode) float64 {
	t.Helper()
	return simulate(t, func(c *Config) {
		c.Model = m
		c.Spec = compress.MustSpec(method)
		c.Mode = mode
	}).TotalSec
}

func TestSimulateValidation(t *testing.T) {
	ssgd := compress.MustSpec("ssgd")
	bad := []struct {
		cfg     Config
		wantSub string
	}{
		{Config{}, "nil model"},
		{Config{Model: models.ResNet50(), Spec: ssgd, Mode: ModeNaive, Workers: 0, Net: Net10GbE()}, "workers"},
		{Config{Model: models.ResNet50(), Mode: ModeNaive, Workers: 2, Net: Net10GbE()}, "no method spec"},
		{Config{Model: models.ResNet50(), Spec: compress.Spec{Name: "quantum"}, Mode: ModeNaive, Workers: 2, Net: Net10GbE()}, "unknown method"},
		{Config{Model: models.ResNet50(), Spec: compress.MustSpec("ssgd:rank=4"), Workers: 2, Net: Net10GbE()}, `unknown param "rank"`},
		// A registered method without a cost model names the ones that have one.
		{Config{Model: models.ResNet50(), Spec: compress.MustSpec("dgc"), Workers: 2, Net: Net10GbE()}, "simulatable: acp, power, sign, ssgd, topk"},
		{Config{Model: models.ResNet50(), Spec: ssgd, Mode: Mode(99), Workers: 2, Net: Net10GbE()}, "unknown mode"},
		{Config{Model: models.ResNet50(), Spec: ssgd, Mode: ModeNaive, Workers: 2}, "network"},
	}
	for i, c := range bad {
		_, err := Simulate(c.cfg)
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Fatalf("config %d: got %v, want error containing %q", i, err, c.wantSub)
		}
	}
}

func TestMethodModeStrings(t *testing.T) {
	for _, m := range []Mode{ModeNaive, ModeWFBP, ModeWFBPTF} {
		if m.String() == "" {
			t.Fatal("missing mode name")
		}
	}
	if Mode(9).String() != "Mode(9)" {
		t.Fatal("unknown enum strings")
	}
	// Method names are the registry's: every simulatable one resolves.
	for _, name := range Names() {
		if _, err := compress.Lookup(name); err != nil {
			t.Fatal(err)
		}
	}
}

// --- Table III: iteration-time orderings -------------------------------

func TestTableIIIResNet50Ordering(t *testing.T) {
	m := models.ResNet50()
	ssgd := tableIIICell(t, m, "ssgd", ModeWFBPTF)
	power := tableIIICell(t, m, "power", ModeNaive)
	powerStar := tableIIICell(t, m, "power", ModeWFBPTF)
	acp := tableIIICell(t, m, "acp", ModeWFBPTF)
	// Paper: ACP (248) < S-SGD (266) < Power* (286) < Power (302).
	if !(acp < ssgd && ssgd < powerStar && powerStar < power) {
		t.Fatalf("ResNet-50 ordering broken: acp=%.0f ssgd=%.0f power*=%.0f power=%.0f",
			acp*1e3, ssgd*1e3, powerStar*1e3, power*1e3)
	}
	// Power-SGD is ~13% slower than S-SGD; allow 3-20%.
	if ratio := power / ssgd; ratio < 1.03 || ratio > 1.25 {
		t.Fatalf("Power/S-SGD ratio %.2f outside paper ballpark (~1.13)", ratio)
	}
}

func TestTableIIIBERTBaseOrdering(t *testing.T) {
	m := models.BERTBase()
	ssgd := tableIIICell(t, m, "ssgd", ModeWFBPTF)
	power := tableIIICell(t, m, "power", ModeNaive)
	powerStar := tableIIICell(t, m, "power", ModeWFBPTF)
	acp := tableIIICell(t, m, "acp", ModeWFBPTF)
	// Paper: ACP (193) < Power (236) < Power* (292) < S-SGD (805).
	if !(acp < power && power < powerStar && powerStar < ssgd) {
		t.Fatalf("BERT-Base ordering broken: acp=%.0f power=%.0f power*=%.0f ssgd=%.0f",
			acp*1e3, power*1e3, powerStar*1e3, ssgd*1e3)
	}
	// ACP speedup over S-SGD ~4.2x on BERT-Base; allow 2.5-5.5x.
	if sp := ssgd / acp; sp < 2.5 || sp > 5.5 {
		t.Fatalf("BERT-Base ACP speedup %.1fx outside ballpark (~4.2x)", sp)
	}
}

func TestTableIIIBERTLargeOrdering(t *testing.T) {
	m := models.BERTLarge()
	ssgd := tableIIICell(t, m, "ssgd", ModeWFBPTF)
	power := tableIIICell(t, m, "power", ModeNaive)
	powerStar := tableIIICell(t, m, "power", ModeWFBPTF)
	acp := tableIIICell(t, m, "acp", ModeWFBPTF)
	// Paper: ACP (245) < Power (392) < Power* (516) < S-SGD (2307).
	if !(acp < power && power < powerStar && powerStar < ssgd) {
		t.Fatalf("BERT-Large ordering broken: acp=%.0f power=%.0f power*=%.0f ssgd=%.0f",
			acp*1e3, power*1e3, powerStar*1e3, ssgd*1e3)
	}
	// The paper's headline: ACP up to 9.42x over S-SGD. Require >= 5x.
	if sp := ssgd / acp; sp < 5 {
		t.Fatalf("BERT-Large ACP speedup %.1fx, want >= 5x", sp)
	}
	// ACP vs Power-SGD: paper 1.60x on BERT-Large; require >= 1.2x.
	if sp := power / acp; sp < 1.2 {
		t.Fatalf("BERT-Large ACP vs Power %.2fx, want >= 1.2x", sp)
	}
}

func TestTableIIIACPFastestEverywhere(t *testing.T) {
	for _, m := range models.Benchmarks() {
		acp := tableIIICell(t, m, "acp", ModeWFBPTF)
		for _, other := range []struct {
			name   string
			method string
			mode   Mode
		}{
			{"S-SGD", "ssgd", ModeWFBPTF},
			{"Power", "power", ModeNaive},
			{"Power*", "power", ModeWFBPTF},
		} {
			o := tableIIICell(t, m, other.method, other.mode)
			if acp >= o {
				t.Fatalf("%s: ACP (%.0fms) not faster than %s (%.0fms)", m.Name, acp*1e3, other.name, o*1e3)
			}
		}
	}
}

func TestTableIIISSGDAbsoluteTimes(t *testing.T) {
	// The S-SGD baselines anchor the calibration; require within 15% of
	// Table III (266, 500, 805, 2307 ms).
	want := map[string]float64{
		"ResNet-50":  0.266,
		"ResNet-152": 0.500,
		"BERT-Base":  0.805,
		"BERT-Large": 2.307,
	}
	for _, m := range models.Benchmarks() {
		got := tableIIICell(t, m, "ssgd", ModeWFBPTF)
		w := want[m.Name]
		if got < 0.85*w || got > 1.15*w {
			t.Fatalf("%s S-SGD %.0fms, paper %.0fms (outside 15%%)", m.Name, got*1e3, w*1e3)
		}
	}
}

// --- Fig 2: gradient compression vs optimized S-SGD ----------------------

func fig2Cell(t *testing.T, m *models.ModelSpec, method string) Result {
	t.Helper()
	return simulate(t, func(c *Config) {
		c.Model = m
		c.Spec = compress.MustSpec(method)
		if method == "ssgd" {
			c.Mode = ModeWFBPTF
		} else {
			c.Mode = ModeNaive
			c.SlowOrth = method == "power"
		}
	})
}

func TestFig2SignAndTopKSlowerThanSSGDOnResNet(t *testing.T) {
	for _, m := range []*models.ModelSpec{models.ResNet50(), models.ResNet152()} {
		ssgd := fig2Cell(t, m, "ssgd").TotalSec
		sign := fig2Cell(t, m, "sign").TotalSec
		topk := fig2Cell(t, m, "topk").TotalSec
		if sign <= ssgd || topk <= ssgd {
			t.Fatalf("%s: compression should lose to S-SGD (ssgd=%.0f sign=%.0f topk=%.0f)",
				m.Name, ssgd*1e3, sign*1e3, topk*1e3)
		}
		// Sign-SGD is ~1.7x slower on ResNet-50.
		if m.Name == "ResNet-50" {
			if r := sign / ssgd; r < 1.3 || r > 2.2 {
				t.Fatalf("Sign/S-SGD ratio %.2f, paper ~1.70", r)
			}
		}
	}
}

func TestFig2PowerBestCompressorAndWinsOnBERT(t *testing.T) {
	for _, m := range models.Benchmarks() {
		power := fig2Cell(t, m, "power")
		sign := fig2Cell(t, m, "sign")
		topk := fig2Cell(t, m, "topk")
		if !sign.OOM && power.TotalSec >= sign.TotalSec {
			t.Fatalf("%s: Power should beat Sign", m.Name)
		}
		if power.TotalSec >= topk.TotalSec {
			t.Fatalf("%s: Power should beat Top-k", m.Name)
		}
		ssgd := fig2Cell(t, m, "ssgd")
		switch m.Name {
		case "BERT-Base", "BERT-Large":
			if power.TotalSec >= ssgd.TotalSec {
				t.Fatalf("%s: Power should beat S-SGD on large models", m.Name)
			}
		case "ResNet-50":
			// "Worse or closely than S-SGD on small models" (§III-B):
			// strictly worse on ResNet-50...
			if power.TotalSec <= ssgd.TotalSec {
				t.Fatalf("%s: Power should lose to S-SGD", m.Name)
			}
		default:
			// ...and within 15% on ResNet-152 (Table III even has Power
			// ahead there).
			if power.TotalSec > 1.15*ssgd.TotalSec {
				t.Fatalf("%s: Power should be close to S-SGD (%.0f vs %.0f)",
					m.Name, power.TotalSec*1e3, ssgd.TotalSec*1e3)
			}
		}
	}
}

func TestFig2SignOOMOnBERTLarge(t *testing.T) {
	r := fig2Cell(t, models.BERTLarge(), "sign")
	if !r.OOM {
		t.Fatalf("Sign-SGD on BERT-Large at 32 workers should OOM (mem=%.1fGB)", r.MemoryBytes/1e9)
	}
	// ...but not on BERT-Base (the paper ran it).
	if fig2Cell(t, models.BERTBase(), "sign").OOM {
		t.Fatal("Sign-SGD on BERT-Base should fit")
	}
}

func TestFig2TopKFasterThanSSGDOnBERTLarge(t *testing.T) {
	ssgd := fig2Cell(t, models.BERTLarge(), "ssgd").TotalSec
	topk := fig2Cell(t, models.BERTLarge(), "topk").TotalSec
	if topk >= ssgd {
		t.Fatalf("Top-k (%.0fms) should beat S-SGD (%.0fms) on BERT-Large", topk*1e3, ssgd*1e3)
	}
}

// --- Fig 3: breakdown properties ----------------------------------------

func TestFig3BreakdownProperties(t *testing.T) {
	// Sign-SGD's communication exceeds S-SGD's despite 32x compression
	// (all-gather inefficiency), and Top-k's compression dominates its
	// communication (§III-B).
	ssgd := fig2Cell(t, models.BERTBase(), "ssgd")
	sign := fig2Cell(t, models.BERTBase(), "sign")
	topk := fig2Cell(t, models.BERTBase(), "topk")
	if sign.CommSec <= ssgd.CommSec {
		t.Fatalf("Sign comm (%.0fms) should exceed S-SGD comm (%.0fms)", sign.CommSec*1e3, ssgd.CommSec*1e3)
	}
	if topk.CompressSec <= topk.CommSec {
		t.Fatalf("Top-k should be compression-bound: comp=%.0f comm=%.0f", topk.CompressSec*1e3, topk.CommSec*1e3)
	}
	if topk.CompressSec <= sign.CompressSec {
		t.Fatal("Top-k compression should cost more than Sign's")
	}
	// Breakdown sums to total.
	for _, r := range []Result{ssgd, sign, topk} {
		sum := r.FFBPSec + r.CompressSec + r.CommSec
		if diff := sum - r.TotalSec; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("breakdown does not sum: %+v", r)
		}
	}
}

// --- Fig 9: benefits of system optimizations -----------------------------

func TestFig9SSGDAndACPImproveWithOptimizations(t *testing.T) {
	for _, m := range []*models.ModelSpec{models.ResNet152(), models.BERTLarge()} {
		for _, method := range []string{"ssgd", "acp"} {
			naive := tableIIICell(t, m, method, ModeNaive)
			wfbp := tableIIICell(t, m, method, ModeWFBP)
			tf := tableIIICell(t, m, method, ModeWFBPTF)
			if wfbp >= naive {
				t.Fatalf("%s %v: WFBP (%.0fms) should beat naive (%.0fms)", m.Name, method, wfbp*1e3, naive*1e3)
			}
			if tf > wfbp {
				t.Fatalf("%s %v: WFBP+TF (%.0fms) should not lose to WFBP (%.0fms)", m.Name, method, tf*1e3, wfbp*1e3)
			}
		}
	}
}

func TestFig9WFBPHurtsPowerSGD(t *testing.T) {
	// The §III-C result: overlapping Power-SGD's compression with BP causes
	// compute interference, so WFBP alone makes Power-SGD slower.
	for _, m := range []*models.ModelSpec{models.ResNet152(), models.BERTLarge()} {
		naive := tableIIICell(t, m, "power", ModeNaive)
		wfbp := tableIIICell(t, m, "power", ModeWFBP)
		if wfbp <= naive {
			t.Fatalf("%s: Power-SGD WFBP (%.0fms) should be slower than naive (%.0fms)", m.Name, wfbp*1e3, naive*1e3)
		}
		tf := tableIIICell(t, m, "power", ModeWFBPTF)
		if tf >= wfbp {
			t.Fatalf("%s: TF should rescue Power-SGD from WFBP (%.0f vs %.0f)", m.Name, tf*1e3, wfbp*1e3)
		}
	}
}

func TestFig9ACPGainsOverNaive(t *testing.T) {
	// §V-D: ACP-SGD with WFBP+TF achieves up to 2.14x over its naive
	// implementation (BERT-Large).
	naive := tableIIICell(t, models.BERTLarge(), "acp", ModeNaive)
	tf := tableIIICell(t, models.BERTLarge(), "acp", ModeWFBPTF)
	if sp := naive / tf; sp < 1.5 || sp > 2.8 {
		t.Fatalf("ACP optimization speedup %.2fx, paper up to 2.14x", sp)
	}
}

// --- Fig 10: buffer-size sweep -------------------------------------------

func TestFig10ACPRobustToBufferSize(t *testing.T) {
	m := models.BERTLarge()
	run := func(rank, bufBytes int, noFusion bool) float64 {
		return simulate(t, func(c *Config) {
			c.Model = m
			c.Spec = compress.MustSpec("acp").With("rank", strconv.Itoa(rank))
			c.BufferBytes = bufBytes
			c.NoFusion = noFusion
		}).TotalSec
	}
	for _, rank := range []int{32, 256} {
		def := run(rank, 0, false) // 25MB default
		zero := run(rank, 0, true)
		huge := run(rank, 1500*1024*1024, false)
		if def > zero || def > huge {
			t.Fatalf("rank %d: default buffer (%.0fms) should beat extremes (0MB %.0fms, 1500MB %.0fms)",
				rank, def*1e3, zero*1e3, huge*1e3)
		}
	}
	// Rank 256 extremes are markedly worse (paper: ~50% improvement at
	// 25MB over both).
	def := run(256, 0, false)
	zero := run(256, 0, true)
	huge := run(256, 1500*1024*1024, false)
	if zero/def < 1.2 || huge/def < 1.2 {
		t.Fatalf("rank 256: 25MB should clearly win (def=%.0f zero=%.0f huge=%.0f)", def*1e3, zero*1e3, huge*1e3)
	}
}

func TestFig10ACPBeatsPowerAcrossBufferSizes(t *testing.T) {
	m := models.BERTLarge()
	for _, rank := range []int{32, 256} {
		for _, buf := range []int{1024 * 1024, 25 * 1024 * 1024, 500 * 1024 * 1024} {
			acp := simulate(t, func(c *Config) {
				c.Model = m
				c.Spec = compress.MustSpec("acp").With("rank", strconv.Itoa(rank))
				c.BufferBytes = buf
			}).TotalSec
			power := simulate(t, func(c *Config) {
				c.Model = m
				c.Spec = compress.MustSpec("power").With("rank", strconv.Itoa(rank))
				c.BufferBytes = buf
			}).TotalSec
			if acp >= power {
				t.Fatalf("rank %d buf %dMB: ACP (%.0fms) should beat Power* (%.0fms)",
					rank, buf/1024/1024, acp*1e3, power*1e3)
			}
		}
	}
}

// --- Fig 11: batch size and rank sweeps -----------------------------------

func TestFig11aBatchSizeTrends(t *testing.T) {
	m := models.ResNet152()
	speedup := func(batch int) float64 {
		ssgd := simulate(t, func(c *Config) { c.Model = m; c.Batch = batch }).TotalSec
		acp := simulate(t, func(c *Config) { c.Model = m; c.Spec = compress.MustSpec("acp"); c.Batch = batch }).TotalSec
		if acp >= ssgd {
			t.Fatalf("batch %d: ACP should beat S-SGD", batch)
		}
		return ssgd / acp
	}
	s16 := speedup(16)
	s32 := speedup(32)
	// Paper: 2.4x at batch 16 shrinking to 1.6x at batch 32.
	if s16 <= s32 {
		t.Fatalf("ACP speedup should shrink with batch size: %.2fx @16 vs %.2fx @32", s16, s32)
	}
	// Throughput (samples/s) improves with batch for S-SGD.
	t16 := simulate(t, func(c *Config) { c.Model = m; c.Batch = 16 }).TotalSec
	t32 := simulate(t, func(c *Config) { c.Model = m; c.Batch = 32 }).TotalSec
	if 16/t16 >= 32/t32 {
		t.Fatal("larger batches should improve S-SGD throughput")
	}
}

func TestFig11bRankTrends(t *testing.T) {
	m := models.BERTLarge()
	cell := func(method string, rank int) Result {
		return simulate(t, func(c *Config) {
			c.Model = m
			c.Spec = compress.MustSpec(method).With("rank", strconv.Itoa(rank))
			if method == "power" {
				c.Mode = ModeWFBPTF
			}
		})
	}
	prevACP, prevPower := 0.0, 0.0
	for _, rank := range []int{32, 64, 128, 256} {
		acp := cell("acp", rank)
		power := cell("power", rank)
		if acp.TotalSec <= prevACP || power.TotalSec <= prevPower {
			t.Fatalf("rank %d: times should grow with rank", rank)
		}
		prevACP, prevPower = acp.TotalSec, power.TotalSec
		if acp.TotalSec >= power.TotalSec {
			t.Fatalf("rank %d: ACP should beat Power*", rank)
		}
	}
	// The ACP advantage grows with rank (paper: 1.9x @32 → 2.7x @256).
	adv32 := cell("power", 32).TotalSec / cell("acp", 32).TotalSec
	adv256 := cell("power", 256).TotalSec / cell("acp", 256).TotalSec
	if adv256 <= adv32 {
		t.Fatalf("ACP advantage should grow with rank: %.2fx @32 vs %.2fx @256", adv32, adv256)
	}
	// Rank 256 (5.4x compression) still beats S-SGD clearly (paper ~3.9x).
	ssgd := simulate(t, func(c *Config) { c.Model = m }).TotalSec
	if sp := ssgd / cell("acp", 256).TotalSec; sp < 2 {
		t.Fatalf("ACP rank-256 speedup over S-SGD %.2fx, want >= 2x", sp)
	}
}

// --- Fig 12: worker scaling ------------------------------------------------

func TestFig12ScalingNearlyFlat(t *testing.T) {
	for _, m := range []*models.ModelSpec{models.ResNet50(), models.BERTBase()} {
		for _, method := range []string{"ssgd", "acp"} {
			t8 := simulate(t, func(c *Config) { c.Model = m; c.Spec = compress.MustSpec(method); c.Workers = 8 }).TotalSec
			t64 := simulate(t, func(c *Config) { c.Model = m; c.Spec = compress.MustSpec(method); c.Workers = 64 }).TotalSec
			if t64 < t8 {
				t.Fatalf("%s %v: more workers cannot be faster per iteration", m.Name, method)
			}
			// Ring all-reduce keeps growth modest: <= 35% from 8 to 64
			// (paper: 8-24%).
			if t64/t8 > 1.35 {
				t.Fatalf("%s %v: scaling degradation %.2fx too steep", m.Name, method, t64/t8)
			}
		}
	}
}

func TestFig12ACPScalesBestOnBERT(t *testing.T) {
	m := models.BERTBase()
	for _, workers := range []int{8, 16, 32, 64} {
		acp := simulate(t, func(c *Config) { c.Model = m; c.Spec = compress.MustSpec("acp"); c.Workers = workers }).TotalSec
		ssgd := simulate(t, func(c *Config) { c.Model = m; c.Workers = workers }).TotalSec
		if acp >= ssgd {
			t.Fatalf("%d workers: ACP should beat S-SGD on BERT-Base", workers)
		}
	}
}

// --- Fig 13: bandwidth sweep ------------------------------------------------

func TestFig13CompressionWinsGrowAsBandwidthShrinks(t *testing.T) {
	for _, m := range []*models.ModelSpec{models.ResNet50(), models.BERTBase()} {
		var prev float64 = 1e18
		for _, net := range []Network{Net1GbE(), Net10GbE(), Net100GbIB()} {
			ssgd := simulate(t, func(c *Config) { c.Model = m; c.Net = net }).TotalSec
			acp := simulate(t, func(c *Config) { c.Model = m; c.Spec = compress.MustSpec("acp"); c.Net = net }).TotalSec
			sp := ssgd / acp
			if sp > prev+1e-9 {
				t.Fatalf("%s: ACP speedup should shrink with faster networks (%.2f after %.2f on %s)",
					m.Name, sp, prev, net.Name)
			}
			prev = sp
		}
	}
}

func TestFig13BERTBase1GbESpeedupLarge(t *testing.T) {
	// Paper: ACP 23.9x over S-SGD on 1GbE BERT-Base. Require >= 8x.
	m := models.BERTBase()
	ssgd := simulate(t, func(c *Config) { c.Model = m; c.Net = Net1GbE() }).TotalSec
	acp := simulate(t, func(c *Config) { c.Model = m; c.Spec = compress.MustSpec("acp"); c.Net = Net1GbE() }).TotalSec
	if sp := ssgd / acp; sp < 8 {
		t.Fatalf("1GbE BERT-Base ACP speedup %.1fx, want >= 8x", sp)
	}
}

func TestFig13ACPStillWinsOn100Gb(t *testing.T) {
	// Paper: ~40% improvement over S-SGD on 100Gb IB for BERT-Base.
	m := models.BERTBase()
	ssgd := simulate(t, func(c *Config) { c.Model = m; c.Net = Net100GbIB() }).TotalSec
	acp := simulate(t, func(c *Config) { c.Model = m; c.Spec = compress.MustSpec("acp"); c.Net = Net100GbIB() }).TotalSec
	if sp := ssgd / acp; sp < 1.05 || sp > 2.5 {
		t.Fatalf("100GbIB BERT-Base ACP speedup %.2fx, paper ~1.4x", sp)
	}
}

// --- misc properties -------------------------------------------------------

func TestCompressionRatioReported(t *testing.T) {
	r := simulate(t, func(c *Config) { c.Spec = compress.MustSpec("acp") })
	// ACP's per-step ratio is ~2x Power's Table I 67x for ResNet-50 r=4.
	if r.CompressionRat < 60 || r.CompressionRat > 250 {
		t.Fatalf("ACP ResNet-50 compression ratio %.0fx implausible", r.CompressionRat)
	}
	rp := simulate(t, func(c *Config) { c.Spec = compress.MustSpec("power"); c.Mode = ModeNaive })
	if rp.CompressionRat < 50 || rp.CompressionRat > 90 {
		t.Fatalf("Power ResNet-50 ratio %.0fx, Table I says 67x", rp.CompressionRat)
	}
}

func TestSingleWorkerHasNoComm(t *testing.T) {
	r := simulate(t, func(c *Config) { c.Workers = 1; c.Net = Network{} })
	if r.CommSec != 0 {
		t.Fatalf("single worker should have no communication: %v", r.CommSec)
	}
}

func TestOneGPUWFBPSlowdownForPower(t *testing.T) {
	// §III-C: on one GPU (no communication), Power-SGD with WFBP is ~13%
	// slower than without, due to compute interference.
	naive := simulate(t, func(c *Config) {
		c.Workers = 1
		c.Net = Network{}
		c.Spec = compress.MustSpec("power")
		c.Mode = ModeNaive
	}).TotalSec
	wfbp := simulate(t, func(c *Config) {
		c.Workers = 1
		c.Net = Network{}
		c.Spec = compress.MustSpec("power")
		c.Mode = ModeWFBPTF
	}).TotalSec
	slowdown := wfbp / naive
	if slowdown < 1.02 || slowdown > 1.40 {
		t.Fatalf("1-GPU WFBP slowdown %.2fx, paper ~1.13x", slowdown)
	}
}

func TestDisableEFReducesCompressCost(t *testing.T) {
	withEF := simulate(t, func(c *Config) { c.Spec = compress.MustSpec("acp"); c.Model = models.BERTLarge() })
	without := simulate(t, func(c *Config) { c.Spec = compress.MustSpec("acp:ef=false"); c.Model = models.BERTLarge() })
	if without.CompressSec >= withEF.CompressSec {
		t.Fatalf("disabling EF should cut compression cost: %.1fms vs %.1fms",
			without.CompressSec*1e3, withEF.CompressSec*1e3)
	}
}

func TestPayloadBytesOrdering(t *testing.T) {
	ssgd := simulate(t, nil)
	acp := simulate(t, func(c *Config) { c.Spec = compress.MustSpec("acp") })
	sign := simulate(t, func(c *Config) { c.Spec = compress.MustSpec("sign"); c.Mode = ModeNaive })
	topk := simulate(t, func(c *Config) { c.Spec = compress.MustSpec("topk"); c.Mode = ModeNaive })
	if !(topk.PayloadBytes < acp.PayloadBytes && acp.PayloadBytes < sign.PayloadBytes && sign.PayloadBytes < ssgd.PayloadBytes) {
		t.Fatalf("payload ordering broken: topk=%.0f acp=%.0f sign=%.0f ssgd=%.0f",
			topk.PayloadBytes, acp.PayloadBytes, sign.PayloadBytes, ssgd.PayloadBytes)
	}
}
