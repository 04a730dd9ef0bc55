package train

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"acpsgd/internal/comm"
	"acpsgd/internal/data"
)

// snapsCopy grabs the cluster's current in-memory checkpoint map (checkpoints
// are immutable after capture, so sharing the pointers is safe).
func snapsCopy(c *Cluster) map[string]*Checkpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]*Checkpoint, len(c.snaps))
	for id, ck := range c.snaps {
		out[id] = ck
	}
	return out
}

// TestElasticJoinBitIdentical is the scale-up acceptance test: a 3-worker
// cluster admits a joiner mid-run, grows to 4 at the next step boundary, and
// from that boundary on is bit-identical to a fresh 4-rank cluster restored
// from the same checkpoints — same per-step losses, same weights on every
// rank. That pins the whole grow path: boundary checkpoint (zero replay),
// donor snapshot streaming to the newcomer, deterministic re-sharding, and
// seed-pure RNG rebasing.
func TestElasticJoinBitIdentical(t *testing.T) {
	const warm, cont = 6, 3
	trainSet := data.GaussianMixture(1001, 768, 16, 4, 1.0)
	build := buildMLP(16, 32, 4)

	cfg := elasticSmokeConfig("topk:ratio=0.05", OverlapOn)
	cfg.Workers = 3
	a, err := NewCluster(cfg, build, trainSet)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SetLR(0.05)
	stepLosses(t, a, warm)

	if err := a.Join("w3"); err != nil {
		t.Fatal(err)
	}
	if err := a.Join("w3"); err == nil {
		t.Fatal("duplicate Join of a pending member should fail")
	}
	if got := a.Size(); got != 3 {
		t.Fatalf("join took effect before the step boundary: size %d", got)
	}

	// The first post-join step rides through the reshape: checkpoint at the
	// boundary, grow to 4, seed w3 from the group checkpoint, then step.
	first := stepLosses(t, a, 1)[0]
	if got := a.Size(); got != 4 {
		t.Fatalf("expected grow to 4 workers, got %d", got)
	}
	if a.Reshapes() != 1 || a.Recoveries() != 0 {
		t.Fatalf("grow must be one budget-free reshape: reshapes=%d recoveries=%d", a.Reshapes(), a.Recoveries())
	}
	snaps := snapsCopy(a) // the boundary checkpoints the reshape restored from

	// A fresh 4-rank cluster resumed from the same checkpoints must continue
	// bit-identically.
	cfgB := cfg
	cfgB.Workers = 4
	b, err := NewCluster(cfgB, build, trainSet)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.SetLR(0.05)
	for r, w := range b.grp.workers {
		ck := snaps[fmt.Sprintf("w%d", r)]
		if ck == nil {
			t.Fatalf("no boundary checkpoint for rank %d", r)
		}
		if err := w.restore(ck); err != nil {
			t.Fatal(err)
		}
	}

	lossesA := append([]float64{first}, stepLosses(t, a, cont-1)...)
	lossesB := stepLosses(t, b, cont)
	for i := range lossesA {
		if lossesA[i] != lossesB[i] {
			t.Fatalf("post-join step %d loss diverged from the fresh 4-rank run: %.17g vs %.17g",
				warm+i, lossesA[i], lossesB[i])
		}
	}
	for r := 0; r < 4; r++ {
		pa, pb := a.Model(r).Params(), b.Model(r).Params()
		for i := range pa {
			for j, v := range pa[i].W.Data {
				if v != pb[i].W.Data[j] {
					t.Fatalf("rank %d param %s[%d] differs bit-wise after join: %g vs %g",
						r, pa[i].Name, j, v, pb[i].W.Data[j])
				}
			}
		}
	}
	if err := a.CheckSync(); err != nil {
		t.Fatalf("replicas out of sync after join: %v", err)
	}
}

// TestElasticJoinStorm: k concurrent joiners are admitted by exactly one
// re-form — the step boundary batches every pending join into a single epoch
// bump instead of re-forming once per newcomer.
func TestElasticJoinStorm(t *testing.T) {
	cfg := elasticSmokeConfig("ssgd", OverlapOn)
	trainSet := data.GaussianMixture(1001, 756, 16, 4, 1.0)
	c, err := NewCluster(cfg, buildMLP(16, 16, 4), trainSet)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetLR(0.05)
	stepLosses(t, c, 2)

	for _, id := range []string{"w4", "w5", "w6"} {
		if err := c.Join(id); err != nil {
			t.Fatal(err)
		}
	}
	stepLosses(t, c, 6)
	if got := c.Size(); got != 7 {
		t.Fatalf("join storm: expected 7 workers, got %d", got)
	}
	if got := c.Reshapes(); got != 1 {
		t.Fatalf("3 joiners must be admitted by exactly one re-form, got %d", got)
	}
	if got := c.Recoveries(); got != 0 {
		t.Fatalf("join storm consumed recovery budget: %d", got)
	}
	if err := c.CheckSync(); err != nil {
		t.Fatal(err)
	}
}

// TestElasticDrainGraceful: DrainRank retires a rank at the next step
// boundary with zero failed steps and zero recovery-budget spend, and the
// drained member is fully deregistered from the control plane.
func TestElasticDrainGraceful(t *testing.T) {
	cfg := elasticSmokeConfig("topk:ratio=0.05", OverlapOn)
	trainSet := data.GaussianMixture(1001, 768, 16, 4, 1.0)
	c, err := NewCluster(cfg, buildMLP(16, 32, 4), trainSet)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetLR(0.05)
	stepLosses(t, c, 4)

	if err := c.DrainRank(1); err != nil {
		t.Fatal(err)
	}
	stepLosses(t, c, 8) // first step re-forms at 3, the rest just train
	if got := c.Size(); got != 3 {
		t.Fatalf("expected re-form at 3 workers after drain, got %d", got)
	}
	if c.Recoveries() != 0 {
		t.Fatalf("graceful drain consumed recovery budget: %d", c.Recoveries())
	}
	if c.Reshapes() != 1 {
		t.Fatalf("graceful drain should be one reshape, got %d", c.Reshapes())
	}
	if ep := c.coord.Epoch(); ep.Has("w1") {
		t.Fatal("drained member still registered with the coordinator")
	}
	if err := c.CheckSync(); err != nil {
		t.Fatal(err)
	}

	// Draining below the floor is refused up front.
	cfg2 := elasticSmokeConfig("ssgd", OverlapOn)
	cfg2.Elastic.MinWorkers = 4
	c2, err := NewCluster(cfg2, buildMLP(16, 16, 4), data.GaussianMixture(1001, 128, 16, 4, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.DrainRank(0); err == nil {
		t.Fatal("drain below MinWorkers should be refused")
	}
}

// TestElasticDrainOverlappingCrash: a drain pending at the same boundary as a
// crash (detected by heartbeat expiry) folds into ONE re-form — the cluster
// settles at n-2 without spending recovery budget on the graceful half.
func TestElasticDrainOverlappingCrash(t *testing.T) {
	cfg := elasticSmokeConfig("ssgd", OverlapOn)
	trainSet := data.GaussianMixture(1001, 256, 16, 4, 1.0)
	c, err := NewCluster(cfg, buildMLP(16, 16, 4), trainSet)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetLR(0.05)
	stepLosses(t, c, 2)

	if err := c.DrainRank(1); err != nil {
		t.Fatal(err)
	}
	c.KillRank(2)
	// Let the killed rank's registration expire so both departures are
	// pending at the next boundary.
	time.Sleep(2 * cfg.Elastic.HeartbeatTimeout)
	stepLosses(t, c, 6)

	if got := c.Size(); got != 2 {
		t.Fatalf("expected 2 survivors after drain+crash, got %d", got)
	}
	if got := c.Reshapes(); got != 1 {
		t.Fatalf("drain and expired crash should fold into one re-form, got %d", got)
	}
	if got := c.Recoveries(); got != 0 {
		t.Fatalf("boundary-detected departures consumed recovery budget: %d", got)
	}
	if err := c.CheckSync(); err != nil {
		t.Fatal(err)
	}
}

// TestElasticDrainThenCrash pins the budget accounting across both paths in
// one run: the drain is a free reshape, the mid-step crash that follows costs
// exactly one recovery.
func TestElasticDrainThenCrash(t *testing.T) {
	cfg := elasticSmokeConfig("ssgd", OverlapOn)
	trainSet := data.GaussianMixture(1001, 256, 16, 4, 1.0)
	c, err := NewCluster(cfg, buildMLP(16, 16, 4), trainSet)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetLR(0.05)
	stepLosses(t, c, 2)

	if err := c.DrainRank(3); err != nil {
		t.Fatal(err)
	}
	stepLosses(t, c, 2)
	if c.Size() != 3 || c.Reshapes() != 1 || c.Recoveries() != 0 {
		t.Fatalf("after drain: size=%d reshapes=%d recoveries=%d", c.Size(), c.Reshapes(), c.Recoveries())
	}

	c.KillRank(1)
	stepLosses(t, c, 4) // first step rides through the crash recovery
	if c.Size() != 2 || c.Recoveries() != 1 {
		t.Fatalf("after crash: size=%d recoveries=%d", c.Size(), c.Recoveries())
	}
	if err := c.CheckSync(); err != nil {
		t.Fatal(err)
	}
}

// hungTransports builds the scripted hung-but-heartbeating rank: every rank
// gets per-op idle deadlines, and on the selected build the victim rank's
// transport additionally wedges (in FRONT of the deadline decoration, so the
// hung rank itself produces no deadline error — exactly like a real wedge,
// blame must come from its peers).
func hungTransports(base func(int) ([]comm.Transport, error), idle time.Duration,
	victim int, wedgeBuilds map[int]bool) func(int) ([]comm.Transport, error) {
	build := 0
	return func(p int) ([]comm.Transport, error) {
		ts, err := base(p)
		if err != nil {
			return nil, err
		}
		build++
		for i := range ts {
			ts[i] = comm.WithDeadline(ts[i], idle)
		}
		if wedgeBuilds[build] && victim < p {
			ts[victim] = comm.WithChaos(ts[victim], comm.ChaosPlan{Stall: true})
		}
		return ts, nil
	}
}

// TestElasticWatchdogExpelsHungRank is the stuck-step acceptance test, on
// both transports: rank 2 keeps heartbeating but its collectives stop making
// progress. Peers' deadline errors name it, the watchdog aborts the step, and
// recovery expels exactly the hung rank — the group re-forms at 3 and keeps
// training.
func TestElasticWatchdogExpelsHungRank(t *testing.T) {
	bases := []struct {
		name string
		base func(int) ([]comm.Transport, error)
	}{
		{"inproc", func(p int) ([]comm.Transport, error) { return comm.NewInprocGroup(p, 0) }},
		{"tcp", func(p int) ([]comm.Transport, error) { return comm.NewTCPGroup(p) }},
	}
	for _, tc := range bases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := elasticSmokeConfig("ssgd", OverlapOn)
			cfg.Elastic.StepDeadline = 150 * time.Millisecond
			cfg.NewTransports = hungTransports(tc.base, 100*time.Millisecond, 2, map[int]bool{1: true})
			trainSet := data.GaussianMixture(1001, 256, 16, 4, 1.0)
			c, err := NewCluster(cfg, buildMLP(16, 16, 4), trainSet)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.SetLR(0.05)

			// The very first step wedges; it must come back recovered within
			// the test timeout, not hang.
			stepLosses(t, c, 6)
			if got := c.Size(); got != 3 {
				t.Fatalf("expected the hung rank expelled (3 workers), got %d", got)
			}
			if got := c.Recoveries(); got != 1 {
				t.Fatalf("hung rank should cost exactly one recovery, got %d", got)
			}
			if ep := c.coord.Epoch(); ep.Has("w2") {
				t.Fatal("hung member w2 survived the watchdog")
			}
			if err := c.CheckSync(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestElasticWatchdogDuringRecovery: the re-formed group wedges again
// immediately — the watchdog must fire during the recovered epoch too, expel
// the new hung rank, and land the cluster at 2 workers after two recoveries.
func TestElasticWatchdogDuringRecovery(t *testing.T) {
	cfg := elasticSmokeConfig("ssgd", OverlapOn)
	cfg.Elastic.StepDeadline = 150 * time.Millisecond
	cfg.NewTransports = hungTransports(
		func(p int) ([]comm.Transport, error) { return comm.NewInprocGroup(p, 0) },
		100*time.Millisecond, 2, map[int]bool{1: true, 2: true})
	trainSet := data.GaussianMixture(1001, 256, 16, 4, 1.0)
	c, err := NewCluster(cfg, buildMLP(16, 16, 4), trainSet)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetLR(0.05)

	stepLosses(t, c, 6)
	if got := c.Size(); got != 2 {
		t.Fatalf("expected 2 workers after back-to-back wedges, got %d", got)
	}
	if got := c.Recoveries(); got != 2 {
		t.Fatalf("two wedges should cost two recoveries, got %d", got)
	}
	if err := c.CheckSync(); err != nil {
		t.Fatal(err)
	}
}

// TestElasticStepDeadlineSentinel: a watchdog abort without Elastic recovery
// surfaces an error matching both ErrStepDeadline and, from the per-op layer,
// comm.ErrDeadline.
func TestElasticStepDeadlineSentinel(t *testing.T) {
	cfg := smokeConfig("ssgd", OverlapOn)
	cfg.Elastic = ElasticConfig{Enabled: false}
	// Watchdog without elastic: configure via an elastic-off cluster is not
	// possible (StepDeadline lives on ElasticConfig), so drive epochGroup.step
	// directly through a wedged transport stack.
	cfg.NewTransports = hungTransports(
		func(p int) ([]comm.Transport, error) { return comm.NewInprocGroup(p, 0) },
		50*time.Millisecond, 1, map[int]bool{1: true})
	trainSet := data.GaussianMixture(1001, 128, 16, 4, 1.0)
	c, err := NewCluster(cfg, buildMLP(16, 16, 4), trainSet)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetLR(0.05)

	g := c.group()
	_, rankErrs, err := g.step(300 * time.Millisecond)
	if err == nil {
		t.Fatal("wedged step should fail")
	}
	// The per-op deadlines fire first and blame the wedged rank.
	blamed := blameHungRanks(g.memberIDs, rankErrs)
	if len(blamed) != 1 || blamed[0] != "w1" {
		t.Fatalf("blame convicted %v, want [w1]", blamed)
	}
	if !errors.Is(err, comm.ErrDeadline) {
		t.Fatalf("step error should carry the deadline cause, got: %v", err)
	}
}

// TestBlameHungRanks: unit coverage for the conviction rule — peers' deadline
// errors accuse, a rank's own deadline error acquits it (its timer ran, so it
// was alive), and everything else is noise.
func TestBlameHungRanks(t *testing.T) {
	ids := []string{"w0", "w1", "w2", "w3"}
	de := func(peer int) error {
		return fmt.Errorf("rank: %w", &comm.DeadlineError{Op: "recv", Peer: peer, Idle: time.Second})
	}
	cases := []struct {
		name string
		errs []error
		want []string
	}{
		{"single wedge", []error{de(2), nil, nil, de(2)}, []string{"w2"}},
		{"ring cascade acquits blockers", []error{de(3), de(2), nil, de(2)}, []string{"w2"}},
		{"no deadline errors", []error{errors.New("x"), nil, nil, nil}, nil},
		{"mutual blame all acquitted", []error{de(1), de(0), nil, nil}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := blameHungRanks(ids, tc.errs)
			if len(got) != len(tc.want) {
				t.Fatalf("blame = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("blame = %v, want %v", got, tc.want)
				}
			}
		})
	}
}

// TestBackoffJitterDeterministic: the recovery backoff keeps its doubling
// shape and 16x cap, spreads each attempt over [ceiling/2, ceiling], and is a
// pure function of (Seed, attempt) — the same seed replays the same timeline,
// different seeds de-synchronize.
func TestBackoffJitterDeterministic(t *testing.T) {
	mk := func(seed int64) *Cluster {
		cfg := Config{Seed: seed}
		cfg.Elastic.Backoff = 32 * time.Millisecond
		return &Cluster{cfg: cfg}
	}
	a, b := mk(7), mk(7)
	ceilings := []time.Duration{32, 64, 128, 256, 512, 512, 512} // ms; doubling capped at 16x
	for attempt := 1; attempt <= len(ceilings); attempt++ {
		da, db := a.backoffFor(attempt), b.backoffFor(attempt)
		if da != db {
			t.Fatalf("attempt %d: same seed produced %v vs %v", attempt, da, db)
		}
		ceil := ceilings[attempt-1] * time.Millisecond
		if da < ceil/2 || da > ceil {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, da, ceil/2, ceil)
		}
	}
	other := mk(8)
	diverged := false
	for attempt := 1; attempt <= 7; attempt++ {
		if other.backoffFor(attempt) != a.backoffFor(attempt) {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("different seeds never produced different jitter")
	}
}
