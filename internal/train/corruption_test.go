package train

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"acpsgd/internal/comm"
	"acpsgd/internal/compress"
	"acpsgd/internal/data"
	"acpsgd/internal/nn"
)

func TestScanNonFinite(t *testing.T) {
	clean := make([]float64, 50_000) // large enough to shard over the pool
	for i := range clean {
		clean[i] = float64(i%7) - 3
	}
	if ix := scanNonFinite(clean); ix != -1 {
		t.Fatalf("clean slice flagged at %d", ix)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, at := range []int{0, 1, 31_337, len(clean) - 1} {
			poisoned := append([]float64(nil), clean...)
			poisoned[at] = bad
			if ix := scanNonFinite(poisoned); ix != at {
				t.Fatalf("%v at %d reported at %d", bad, at, ix)
			}
		}
	}
	if ix := scanNonFinite(nil); ix != -1 {
		t.Fatalf("empty slice flagged at %d", ix)
	}
}

func TestBlameCorruptRanks(t *testing.T) {
	ids := []string{"w0", "w1", "w2", "w3"}
	wrap := func(err error) error { return fmt.Errorf("train: rank x step: %w", err) }
	cases := []struct {
		name string
		errs []error
		want []string
	}{
		{"no errors", []error{nil, nil, nil, nil}, nil},
		{"wire checksum names sender",
			[]error{nil, wrap(&comm.CorruptError{Op: "recv", Peer: 3}), nil, nil},
			[]string{"w3"}},
		{"decode validation names encoder",
			[]error{wrap(&compress.CorruptError{Rank: 2, Reason: "bad code"}), nil, nil, nil},
			[]string{"w2"}},
		{"numeric self-report",
			[]error{nil, wrap(&NumericError{Rank: 1, What: "local gradient"}), nil, nil},
			[]string{"w1"}},
		{"unattributed aggregate convicts nobody",
			[]error{wrap(&NumericError{Rank: -1, What: "aggregate"}), nil, nil, nil},
			nil},
		{"dedup across accusers, sorted",
			[]error{
				wrap(&comm.CorruptError{Op: "recv", Peer: 2}),
				wrap(&compress.CorruptError{Rank: 2, Reason: "x"}),
				wrap(&comm.CorruptError{Op: "recv", Peer: 0}),
				nil,
			},
			[]string{"w0", "w2"}},
		{"out-of-range peer ignored",
			[]error{wrap(&comm.CorruptError{Op: "recv", Peer: 9}), nil, nil, nil},
			nil},
		{"no acquittal for self-accusers",
			[]error{nil, nil, wrap(&comm.CorruptError{Op: "recv", Peer: 2}), nil},
			[]string{"w2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := blameCorruptRanks(ids, tc.errs)
			if len(got) != len(tc.want) {
				t.Fatalf("blamed %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("blamed %v, want %v", got, tc.want)
				}
			}
		})
	}
}

// TestCheckNumericsCleanRunBitIdentical pins that the guard is read-only: a
// clean run with the scans armed produces bit-identical losses and weights
// to one without.
func TestCheckNumericsCleanRunBitIdentical(t *testing.T) {
	trainSet := data.GaussianMixture(1001, 512, 16, 4, 1.0)
	build := buildMLP(16, 32, 4)
	run := func(check bool) ([]float64, *nn.Model) {
		cfg := smokeConfig("topk:ratio=0.05", OverlapOn)
		cfg.CheckNumerics = check
		c, err := NewCluster(cfg, build, trainSet)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetLR(0.05)
		return stepLosses(t, c, 10), c.Model(0)
	}
	lossesOn, modelOn := run(true)
	lossesOff, modelOff := run(false)
	for i := range lossesOn {
		if lossesOn[i] != lossesOff[i] {
			t.Fatalf("step %d loss diverged with CheckNumerics: %v vs %v", i, lossesOn[i], lossesOff[i])
		}
	}
	on, off := modelOn.Params(), modelOff.Params()
	for i := range on {
		for j := range on[i].W.Data {
			if on[i].W.Data[j] != off[i].W.Data[j] {
				t.Fatalf("weight %s[%d] diverged with CheckNumerics", on[i].Name, j)
			}
		}
	}
}

// TestNumericGuardExpelsPoisonedRank is the poison chaos smoke: rank 1's
// backward starts producing NaN mid-run; the numeric guard self-reports,
// recovery convicts and expels the member, and the three survivors re-form
// from the last checkpoint and keep converging with finite weights.
func TestNumericGuardExpelsPoisonedRank(t *testing.T) {
	trainSet := data.GaussianMixture(1001, 768, 16, 4, 1.0)
	for _, spec := range []string{"topk:ratio=0.05", "ssgd"} {
		t.Run(spec, func(t *testing.T) {
			cfg := elasticSmokeConfig(spec, OverlapOn)
			cfg.CheckNumerics = true
			c, err := NewCluster(cfg, buildMLP(16, 32, 4), trainSet)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.SetLR(0.05)

			losses := stepLosses(t, c, 12)
			c.PoisonRank(1)
			losses = append(losses, stepLosses(t, c, 24)...)

			if got := c.Size(); got != cfg.Workers-1 {
				t.Fatalf("poisoned rank not expelled: %d workers, want %d", got, cfg.Workers-1)
			}
			if c.Recoveries() == 0 {
				t.Fatal("poison never triggered a recovery")
			}
			if err := c.CheckSync(); err != nil {
				t.Fatalf("survivors out of sync after expulsion: %v", err)
			}
			for _, p := range c.Model(0).Params() {
				if ix := scanNonFinite(p.W.Data); ix >= 0 {
					t.Fatalf("poison leaked into survivor weights: %s[%d]", p.Name, ix)
				}
			}
			tail := 0.0
			for _, l := range losses[len(losses)-8:] {
				tail += l
			}
			tail /= 8
			if math.IsNaN(tail) || tail > 0.7 {
				t.Fatalf("tail loss %.4f above threshold after expulsion", tail)
			}
		})
	}
}

// corruptingTransports builds the wire-corruption chaos stack: every rank
// sends through an integrity seal (CRC32C trailer verified by the receiving
// decorator), and on the FIRST epoch only, the given rank's sends pass
// through a seeded bit-flipper sitting under the seal — so every flip it
// injects is exactly what a receiver's checksum check must catch. Re-formed
// epochs are clean, as after replacing a machine with failing hardware.
func corruptingTransports(badRank int, p float64, seed int64, builds *int32) func(int) ([]comm.Transport, error) {
	return func(n int) ([]comm.Transport, error) {
		ts, err := comm.NewInprocGroup(n, 0)
		if err != nil {
			return nil, err
		}
		first := atomic.AddInt32(builds, 1) == 1
		for i := range ts {
			if first && i == badRank {
				ts[i] = comm.WithChaos(ts[i], comm.ChaosPlan{Flip: p, Seed: seed})
			}
			ts[i] = comm.WithIntegrity(ts[i])
		}
		return ts, nil
	}
}

// TestCorruptionChaosExpelsFlippingRank is the wire-corruption chaos smoke:
// rank 1's outbound payloads suffer seeded bit flips; the integrity layer
// detects every flip before a pooled buffer is handed up, receivers blame
// the sending peer, recovery expels it, and the survivors converge — no
// silent weight divergence anywhere.
func TestCorruptionChaosExpelsFlippingRank(t *testing.T) {
	trainSet := data.GaussianMixture(1001, 768, 16, 4, 1.0)
	cfg := elasticSmokeConfig("topk:ratio=0.05", OverlapOn)
	cfg.CheckNumerics = true
	var builds int32
	cfg.NewTransports = corruptingTransports(1, 0.02, 42, &builds)
	c, err := NewCluster(cfg, buildMLP(16, 32, 4), trainSet)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetLR(0.05)

	losses := stepLosses(t, c, 36) // the flip, detection and re-form happen in here

	if n := atomic.LoadInt32(&builds); n < 2 {
		t.Fatalf("corruption never triggered a re-form (transport builds: %d)", n)
	}
	if got := c.Size(); got != cfg.Workers-1 {
		t.Fatalf("flipping rank not expelled: %d workers, want %d", got, cfg.Workers-1)
	}
	if err := c.CheckSync(); err != nil {
		t.Fatalf("survivors out of sync after expulsion: %v", err)
	}
	for _, p := range c.Model(0).Params() {
		if ix := scanNonFinite(p.W.Data); ix >= 0 {
			t.Fatalf("corruption leaked into survivor weights: %s[%d]", p.Name, ix)
		}
	}
	tail := 0.0
	for _, l := range losses[len(losses)-8:] {
		tail += l
	}
	tail /= 8
	if math.IsNaN(tail) || tail > 0.7 {
		t.Fatalf("tail loss %.4f above threshold after expulsion", tail)
	}
}

// TestCorruptionDetectedOverTCP pins the transport-native defense: with
// seeded flips injected ABOVE the TCP framer (so they are sealed into valid
// frames) the app-level integrity layer still catches them; and the TCP
// frame checksum itself is exercised by every clean exchange. The first
// failing step must surface a *comm.CorruptError naming the flipping peer —
// detection, not silent divergence.
func TestCorruptionDetectedOverTCP(t *testing.T) {
	cfg := smokeConfig("ssgd", OverlapOn)
	cfg.Workers = 2
	cfg.NewTransports = func(n int) ([]comm.Transport, error) {
		ts, err := comm.NewTCPGroup(n)
		if err != nil {
			return nil, err
		}
		ts[0] = comm.WithChaos(ts[0], comm.ChaosPlan{Flip: 1, Seed: 7}) // flip every message
		for i := range ts {
			ts[i] = comm.WithIntegrity(ts[i])
		}
		return ts, nil
	}
	trainSet := data.GaussianMixture(1001, 256, 16, 4, 1.0)
	c, err := NewCluster(cfg, buildMLP(16, 32, 4), trainSet)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetLR(0.05)
	_, err = c.Step()
	if err == nil {
		t.Fatal("flipped payloads stepped cleanly")
	}
	blamed := blameCorruptRanks([]string{"w0", "w1"}, []error{err})
	if len(blamed) != 1 || blamed[0] != "w0" {
		t.Fatalf("step error %v blamed %v, want [w0]", err, blamed)
	}
}
