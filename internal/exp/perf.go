package exp

import (
	"fmt"

	"acpsgd/internal/compress"
	"acpsgd/internal/models"
	"acpsgd/internal/sim"
)

// runSim is the shared simulation entry for the performance experiments;
// method is a compressor spec ("acp", "power:rank=32").
func runSim(spec *models.ModelSpec, method string, mode sim.Mode, mutate func(*sim.Config)) (sim.Result, error) {
	cfg := sim.Config{
		Model:   spec,
		Spec:    compress.MustSpec(method),
		Mode:    mode,
		Workers: 32,
		Net:     sim.Net10GbE(),
		GPU:     sim.DefaultGPU(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return sim.Simulate(cfg)
}

// fmtCell renders a result cell: total ms or OOM.
func fmtCell(r sim.Result) string {
	if r.OOM {
		return "OOM"
	}
	return ms(r.TotalSec)
}

// Fig2 reproduces the §III comparison: well-optimized S-SGD against the
// three representative compression methods (Sign-SGD, Top-k SGD with
// multi-sampling, original Power-SGD) on 32 GPUs, 10GbE.
func Fig2() (*Table, error) {
	t := &Table{
		ID:      "fig2",
		Title:   "Iteration time (ms): optimized S-SGD vs compression methods (32 GPUs, 10GbE)",
		Columns: []string{"Model", "S-SGD", "Sign-SGD", "Top-k SGD", "Power-SGD"},
		Notes: []string{
			"paper shape: Sign/Top-k lose to S-SGD on ResNets; Power wins only on BERTs; Sign OOMs on BERT-Large",
		},
	}
	for _, m := range models.Benchmarks() {
		ssgd, err := runSim(m, "ssgd", sim.ModeWFBPTF, nil)
		if err != nil {
			return nil, err
		}
		sign, err := runSim(m, "sign", sim.ModeNaive, nil)
		if err != nil {
			return nil, err
		}
		topk, err := runSim(m, "topk", sim.ModeNaive, nil)
		if err != nil {
			return nil, err
		}
		power, err := runSim(m, "power", sim.ModeNaive, func(c *sim.Config) { c.SlowOrth = true })
		if err != nil {
			return nil, err
		}
		t.AddRow(m.Name, fmtCell(ssgd), fmtCell(sign), fmtCell(topk), fmtCell(power))
	}
	return t, nil
}

// breakdownRows renders FF&BP / compression / non-overlapped communication
// rows for a set of (label, result) pairs.
func breakdownRows(t *Table, model string, cells []struct {
	label string
	r     sim.Result
}) {
	for _, c := range cells {
		if c.r.OOM {
			t.AddRow(model, c.label, "OOM", "OOM", "OOM", "OOM")
			continue
		}
		t.AddRow(model, c.label, ms(c.r.FFBPSec), ms(c.r.CompressSec), ms(c.r.CommSec), ms(c.r.TotalSec))
	}
}

// Fig3 reproduces the time breakdowns of S-SGD, Sign-SGD, Top-k and
// Power-SGD on ResNet-50 and BERT-Base.
func Fig3() (*Table, error) {
	t := &Table{
		ID:      "fig3",
		Title:   "Time breakdowns (ms): FF&BP / compression / non-overlapped comm",
		Columns: []string{"Model", "Method", "FF&BP", "Compress", "Comm", "Total"},
		Notes: []string{
			"paper shape: Sign comm exceeds S-SGD's despite 32x ratio; Top-k is compression-bound",
		},
	}
	for _, m := range []*models.ModelSpec{models.ResNet50(), models.BERTBase()} {
		var cells []struct {
			label string
			r     sim.Result
		}
		add := func(label string, method string, mode sim.Mode, slow bool) error {
			r, err := runSim(m, method, mode, func(c *sim.Config) { c.SlowOrth = slow })
			if err != nil {
				return err
			}
			cells = append(cells, struct {
				label string
				r     sim.Result
			}{label, r})
			return nil
		}
		if err := add("S-SGD", "ssgd", sim.ModeWFBPTF, false); err != nil {
			return nil, err
		}
		if err := add("Sign-SGD", "sign", sim.ModeNaive, false); err != nil {
			return nil, err
		}
		if err := add("Top-k SGD", "topk", sim.ModeNaive, false); err != nil {
			return nil, err
		}
		if err := add("Power-SGD", "power", sim.ModeNaive, true); err != nil {
			return nil, err
		}
		breakdownRows(t, m.Name, cells)
	}
	return t, nil
}

// TableIII reproduces the headline iteration-time comparison: S-SGD,
// Power-SGD (original), Power-SGD* (WFBP+TF) and ACP-SGD.
func TableIII() (*Table, error) {
	t := &Table{
		ID:      "table3",
		Title:   "Average iteration time (ms), 32 GPUs, 10GbE",
		Columns: []string{"Model", "S-SGD", "Power-SGD", "Power-SGD*", "ACP-SGD", "ACP vs S-SGD", "ACP vs Power"},
		Notes: []string{
			"paper: 266/302/286/248, 500/423/404/316, 805/236/292/193, 2307/392/516/245",
			"paper averages: ACP 4.06x over S-SGD, 1.34x over Power-SGD",
		},
	}
	for _, m := range models.Benchmarks() {
		ssgd, err := runSim(m, "ssgd", sim.ModeWFBPTF, nil)
		if err != nil {
			return nil, err
		}
		power, err := runSim(m, "power", sim.ModeNaive, nil)
		if err != nil {
			return nil, err
		}
		powerStar, err := runSim(m, "power", sim.ModeWFBPTF, nil)
		if err != nil {
			return nil, err
		}
		acp, err := runSim(m, "acp", sim.ModeWFBPTF, nil)
		if err != nil {
			return nil, err
		}
		t.AddRow(m.Name, fmtCell(ssgd), fmtCell(power), fmtCell(powerStar), fmtCell(acp),
			speedup(ssgd.TotalSec, acp.TotalSec), speedup(power.TotalSec, acp.TotalSec))
	}
	return t, nil
}

// Fig8 reproduces the breakdowns of the Table III methods on ResNet-50 and
// BERT-Base.
func Fig8() (*Table, error) {
	t := &Table{
		ID:      "fig8",
		Title:   "Time breakdowns of the optimized methods (ms)",
		Columns: []string{"Model", "Method", "FF&BP", "Compress", "Comm", "Total"},
		Notes: []string{
			"paper shape: ACP has near-zero compression and communication overhead",
		},
	}
	for _, m := range []*models.ModelSpec{models.ResNet50(), models.BERTBase()} {
		var cells []struct {
			label string
			r     sim.Result
		}
		add := func(label string, method string, mode sim.Mode) error {
			r, err := runSim(m, method, mode, nil)
			if err != nil {
				return err
			}
			cells = append(cells, struct {
				label string
				r     sim.Result
			}{label, r})
			return nil
		}
		if err := add("S-SGD", "ssgd", sim.ModeWFBPTF); err != nil {
			return nil, err
		}
		if err := add("Power-SGD", "power", sim.ModeNaive); err != nil {
			return nil, err
		}
		if err := add("Power-SGD*", "power", sim.ModeWFBPTF); err != nil {
			return nil, err
		}
		if err := add("ACP-SGD", "acp", sim.ModeWFBPTF); err != nil {
			return nil, err
		}
		breakdownRows(t, m.Name, cells)
	}
	return t, nil
}

// Fig9 reproduces the step-by-step benefit of WFBP and TF for S-SGD,
// Power-SGD and ACP-SGD on ResNet-152 and BERT-Large.
func Fig9() (*Table, error) {
	t := &Table{
		ID:      "fig9",
		Title:   "Benefits of system optimizations (ms)",
		Columns: []string{"Model", "Method", "Naive", "WFBP", "WFBP+TF", "TF gain"},
		Notes: []string{
			"paper shape: WFBP helps S-SGD/ACP (~12%) but hurts Power-SGD (~13%); TF helps everyone",
		},
	}
	for _, m := range []*models.ModelSpec{models.ResNet152(), models.BERTLarge()} {
		for _, mc := range []struct {
			label  string
			method string
		}{
			{"S-SGD", "ssgd"},
			{"Power-SGD", "power"},
			{"ACP-SGD", "acp"},
		} {
			naive, err := runSim(m, mc.method, sim.ModeNaive, nil)
			if err != nil {
				return nil, err
			}
			wfbp, err := runSim(m, mc.method, sim.ModeWFBP, nil)
			if err != nil {
				return nil, err
			}
			tf, err := runSim(m, mc.method, sim.ModeWFBPTF, nil)
			if err != nil {
				return nil, err
			}
			t.AddRow(m.Name, mc.label, fmtCell(naive), fmtCell(wfbp), fmtCell(tf),
				speedup(wfbp.TotalSec, tf.TotalSec))
		}
	}
	return t, nil
}

// Fig10 reproduces the buffer-size sensitivity study: BERT-Large, ranks 32
// and 256, buffer sizes 0..1500MB for Power-SGD* and ACP-SGD.
func Fig10() (*Table, error) {
	t := &Table{
		ID:      "fig10",
		Title:   "Effect of buffer size on BERT-Large (ms)",
		Columns: []string{"Rank", "Buffer (MB)", "Power-SGD", "ACP-SGD"},
		Notes: []string{
			"paper shape: ACP robust to buffer size; 25MB near-optimal at both ranks",
		},
	}
	sizes := []int{0, 25, 50, 100, 500, 1000, 1500}
	for _, rank := range []int{32, 256} {
		for _, mb := range sizes {
			mutate := func(c *sim.Config) {
				if mb == 0 {
					c.NoFusion = true
				} else {
					c.BufferBytes = mb * 1024 * 1024
				}
			}
			power, err := runSim(models.BERTLarge(), fmt.Sprintf("power:rank=%d", rank), sim.ModeWFBPTF, mutate)
			if err != nil {
				return nil, err
			}
			acp, err := runSim(models.BERTLarge(), fmt.Sprintf("acp:rank=%d", rank), sim.ModeWFBPTF, mutate)
			if err != nil {
				return nil, err
			}
			t.AddRow(rank, mb, fmtCell(power), fmtCell(acp))
		}
	}
	return t, nil
}

// Fig11a reproduces the batch-size sweep on ResNet-152.
func Fig11a() (*Table, error) {
	t := &Table{
		ID:      "fig11a",
		Title:   "Effect of batch size on ResNet-152 (ms; FF&BP/compress/comm)",
		Columns: []string{"Batch", "Method", "FF&BP", "Compress", "Comm", "Total"},
		Notes: []string{
			"paper shape: ACP speedup over S-SGD shrinks as batch grows (2.4x @16 to 1.6x @32)",
		},
	}
	for _, batch := range []int{16, 24, 32} {
		for _, mc := range []struct {
			label  string
			method string
			mode   sim.Mode
		}{
			{"S-SGD", "ssgd", sim.ModeWFBPTF},
			{"Power-SGD", "power", sim.ModeWFBPTF},
			{"ACP-SGD", "acp", sim.ModeWFBPTF},
		} {
			r, err := runSim(models.ResNet152(), mc.method, mc.mode, func(c *sim.Config) { c.Batch = batch })
			if err != nil {
				return nil, err
			}
			t.AddRow(batch, mc.label, ms(r.FFBPSec), ms(r.CompressSec), ms(r.CommSec), ms(r.TotalSec))
		}
	}
	return t, nil
}

// Fig11b reproduces the rank sweep on BERT-Large.
func Fig11b() (*Table, error) {
	t := &Table{
		ID:      "fig11b",
		Title:   "Effect of rank on BERT-Large (ms; FF&BP/compress/comm)",
		Columns: []string{"Rank", "Method", "FF&BP", "Compress", "Comm", "Total"},
		Notes: []string{
			"paper shape: ACP's advantage over Power grows with rank (1.9x @32 to 2.7x @256)",
		},
	}
	for _, rank := range []int{32, 64, 128, 256} {
		for _, mc := range []struct {
			label  string
			method string
		}{
			{"Power-SGD", "power"},
			{"ACP-SGD", "acp"},
		} {
			r, err := runSim(models.BERTLarge(), fmt.Sprintf("%s:rank=%d", mc.method, rank), sim.ModeWFBPTF, nil)
			if err != nil {
				return nil, err
			}
			t.AddRow(rank, mc.label, ms(r.FFBPSec), ms(r.CompressSec), ms(r.CommSec), ms(r.TotalSec))
		}
	}
	return t, nil
}

// Fig12 reproduces the worker-count scaling study (8 to 64 GPUs).
func Fig12() (*Table, error) {
	t := &Table{
		ID:      "fig12",
		Title:   "Effect of the number of GPUs (iteration ms)",
		Columns: []string{"Model", "GPUs", "S-SGD", "Power-SGD", "ACP-SGD"},
		Notes: []string{
			"paper shape: near-flat scaling thanks to ring all-reduce + tensor fusion",
		},
	}
	for _, m := range []*models.ModelSpec{models.ResNet50(), models.BERTBase()} {
		for _, workers := range []int{8, 16, 32, 64} {
			mutate := func(c *sim.Config) { c.Workers = workers }
			ssgd, err := runSim(m, "ssgd", sim.ModeWFBPTF, mutate)
			if err != nil {
				return nil, err
			}
			power, err := runSim(m, "power", sim.ModeWFBPTF, mutate)
			if err != nil {
				return nil, err
			}
			acp, err := runSim(m, "acp", sim.ModeWFBPTF, mutate)
			if err != nil {
				return nil, err
			}
			t.AddRow(m.Name, workers, fmtCell(ssgd), fmtCell(power), fmtCell(acp))
		}
	}
	return t, nil
}

// Fig13 reproduces the bandwidth sweep (1GbE / 10GbE / 100Gb IB, 32 GPUs).
func Fig13() (*Table, error) {
	t := &Table{
		ID:      "fig13",
		Title:   "Effect of network bandwidth (iteration ms, 32 GPUs)",
		Columns: []string{"Model", "Network", "S-SGD", "Power-SGD", "ACP-SGD", "ACP vs S-SGD"},
		Notes: []string{
			"paper shape: compression wins grow as bandwidth shrinks (ACP up to 23.9x on 1GbE BERT-Base)",
		},
	}
	for _, m := range []*models.ModelSpec{models.ResNet50(), models.BERTBase()} {
		for _, net := range []sim.Network{sim.Net1GbE(), sim.Net10GbE(), sim.Net100GbIB()} {
			mutate := func(c *sim.Config) { c.Net = net }
			ssgd, err := runSim(m, "ssgd", sim.ModeWFBPTF, mutate)
			if err != nil {
				return nil, err
			}
			power, err := runSim(m, "power", sim.ModeWFBPTF, mutate)
			if err != nil {
				return nil, err
			}
			acp, err := runSim(m, "acp", sim.ModeWFBPTF, mutate)
			if err != nil {
				return nil, err
			}
			t.AddRow(m.Name, net.Name, fmtCell(ssgd), fmtCell(power), fmtCell(acp),
				speedup(ssgd.TotalSec, acp.TotalSec))
		}
	}
	return t, nil
}
