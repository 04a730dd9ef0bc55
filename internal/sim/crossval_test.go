package sim

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"acpsgd/internal/comm"
	"acpsgd/internal/compress"
	"acpsgd/internal/data"
	"acpsgd/internal/nn"
	"acpsgd/internal/train"
)

// TestScenarioCrossValidatesElasticRuntime lines the scenario engine up
// against the real elastic runtime on the facts both sides can state
// exactly: how many recoveries a given failure history costs and how many
// workers survive it. A 4-rank train.Cluster suffers a transient link fault
// on rank 1 (flaky transport, first epoch only — the rank keeps
// heartbeating, so the group re-forms at full size) and then a crash of
// rank 2 (KillRank — the group shrinks to 3). The simulated scenario
// scripts the same two events and must agree on the recovery count, the
// survivor count, and the crash/transient classification.
func TestScenarioCrossValidatesElasticRuntime(t *testing.T) {
	const (
		workers      = 4
		flakyRank    = 1
		crashRank    = 2
		stepsBetween = 4 // successful steps between the two injected failures
	)

	// --- real side: an elastic cluster with the scripted failure history.
	cfg := train.Config{
		Spec:           compress.MustSpec("ssgd"),
		Workers:        workers,
		BatchPerWorker: 16,
		Epochs:         1,
		Momentum:       0.9,
		Schedule:       train.Schedule{BaseLR: 0.05},
		Overlap:        train.OverlapOn,
		Seed:           7,
		Elastic: train.ElasticConfig{
			Enabled:          true,
			CheckpointEvery:  2,
			MaxRecoveries:    4,
			Backoff:          5 * time.Millisecond,
			HeartbeatTimeout: 200 * time.Millisecond,
		},
	}
	var builds int32
	cfg.NewTransports = func(p int) ([]comm.Transport, error) {
		ts, err := comm.NewInprocGroup(p, 0)
		if err != nil {
			return nil, err
		}
		// Epoch 1 only: rank 1's transport fails every operation, so the
		// very first step hits a transient link fault while the rank keeps
		// heartbeating. Re-formed epochs get clean transports.
		if atomic.AddInt32(&builds, 1) == 1 {
			ts[flakyRank] = comm.WithChaos(ts[flakyRank], comm.ChaosPlan{Fail: 1, Seed: 42})
		}
		return ts, nil
	}
	build := func(rng *rand.Rand) *nn.Model {
		return nn.NewModel(
			nn.NewDense("fc1", 16, 16, rng),
			nn.NewReLU("act"),
			nn.NewDense("head", 16, 4, rng),
		)
	}
	trainSet := data.GaussianMixture(1001, 256, 16, 4, 1.0)
	c, err := train.NewCluster(cfg, build, trainSet)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetLR(0.05)

	// Step 1 rides through the transient recovery inside the call.
	for i := 0; i < 1+stepsBetween; i++ {
		if _, err := c.Step(); err != nil {
			t.Fatalf("step %d: %v", i+1, err)
		}
	}
	if got := c.Size(); got != workers {
		t.Fatalf("transient fault changed the group size: %d, want %d", got, workers)
	}
	if got := c.Recoveries(); got != 1 {
		t.Fatalf("after the transient: %d recoveries, want 1", got)
	}

	c.KillRank(crashRank)
	// The next step rides through the crash recovery.
	for i := 0; i < 2; i++ {
		if _, err := c.Step(); err != nil {
			t.Fatalf("post-kill step %d: %v", i+1, err)
		}
	}

	realRecoveries := c.Recoveries()
	realSurvivors := c.Size()
	if realRecoveries != 2 {
		t.Fatalf("real run: %d recoveries, want 2 (one transient, one crash)", realRecoveries)
	}
	if realSurvivors != workers-1 {
		t.Fatalf("real run: %d survivors, want %d", realSurvivors, workers-1)
	}

	// --- simulated side: the same failure history as a scripted scenario.
	// The transient lands on step 1 (the flaky transport fails the first
	// collective); the crash lands after the in-between steps.
	crashStep := 1 + stepsBetween + 1
	sc := &Scenario{
		Name:   "crossval",
		Seed:   42,
		Steps:  crashStep + 2,
		Model:  "resnet50",
		Method: "ssgd",
		Fleet: FleetSpec{
			Nodes:     workers,
			Templates: []NodeTemplate{{Name: "gpu", Weight: 1}},
		},
		Faults: FaultSpec{Scripted: []ScriptedFault{
			{Step: 1, Kind: FaultTransient, Node: flakyRank},
			{Step: crashStep, Kind: FaultCrash, Node: crashRank},
		}},
		Recovery: RecoverySpec{CheckpointEverySteps: 2},
	}
	rep, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}

	if rep.Recoveries != realRecoveries {
		t.Fatalf("recovery count disagrees: sim %d vs real %d", rep.Recoveries, realRecoveries)
	}
	if rep.FinalSurvivors != realSurvivors {
		t.Fatalf("survivor count disagrees: sim %d vs real %d", rep.FinalSurvivors, realSurvivors)
	}
	if rep.Transients != 1 || rep.Crashes != 1 {
		t.Fatalf("sim misclassified the failure history: %+v", rep)
	}
	if rep.Dead {
		t.Fatalf("sim cluster died where the real one survived: %+v", rep)
	}
	if rep.RecoverySec <= 0 {
		t.Fatalf("sim priced the recoveries at zero: %+v", rep)
	}
}

// TestScenarioCrossValidatesCorruptionExpulsion lines the corruption fault
// model up against the real numeric-health guard. A 4-rank elastic cluster
// runs with CheckNumerics on; after two clean steps rank 1 starts emitting
// NaN gradients (PoisonRank), its local scan self-reports, the cluster
// blames and expels it, and training rides through one recovery to 3
// survivors. The scripted scenario injects one corrupt fault at the same
// step and must agree on the recovery count, the survivor count, and the
// corruption classification.
func TestScenarioCrossValidatesCorruptionExpulsion(t *testing.T) {
	const (
		workers      = 4
		poisonedRank = 1
		cleanSteps   = 2
	)

	// --- real side: a numeric-guarded elastic cluster with one rank poisoned.
	cfg := train.Config{
		Spec:           compress.MustSpec("ssgd"),
		Workers:        workers,
		BatchPerWorker: 16,
		Epochs:         1,
		Momentum:       0.9,
		Schedule:       train.Schedule{BaseLR: 0.05},
		Overlap:        train.OverlapOn,
		Seed:           7,
		CheckNumerics:  true,
		Elastic: train.ElasticConfig{
			Enabled:          true,
			CheckpointEvery:  2,
			MaxRecoveries:    4,
			Backoff:          5 * time.Millisecond,
			HeartbeatTimeout: 200 * time.Millisecond,
		},
	}
	build := func(rng *rand.Rand) *nn.Model {
		return nn.NewModel(
			nn.NewDense("fc1", 16, 16, rng),
			nn.NewReLU("act"),
			nn.NewDense("head", 16, 4, rng),
		)
	}
	trainSet := data.GaussianMixture(1001, 256, 16, 4, 1.0)
	c, err := train.NewCluster(cfg, build, trainSet)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetLR(0.05)

	for i := 0; i < cleanSteps; i++ {
		if _, err := c.Step(); err != nil {
			t.Fatalf("clean step %d: %v", i+1, err)
		}
	}
	c.PoisonRank(poisonedRank)
	// The next step hits the numeric guard and rides through the expulsion
	// recovery inside the call.
	for i := 0; i < 2; i++ {
		if _, err := c.Step(); err != nil {
			t.Fatalf("post-poison step %d: %v", i+1, err)
		}
	}

	realRecoveries, realSurvivors := c.Recoveries(), c.Size()
	if realRecoveries != 1 {
		t.Fatalf("real run: %d recoveries, want 1 (the poisoned-rank expulsion)", realRecoveries)
	}
	if realSurvivors != workers-1 {
		t.Fatalf("real run: %d survivors, want %d", realSurvivors, workers-1)
	}

	// --- simulated side: the same history as one scripted corrupt fault.
	sc := &Scenario{
		Name:   "crossval-corrupt",
		Seed:   42,
		Steps:  cleanSteps + 3,
		Model:  "resnet50",
		Method: "ssgd",
		Fleet: FleetSpec{
			Nodes:     workers,
			Templates: []NodeTemplate{{Name: "gpu", Weight: 1}},
		},
		Faults: FaultSpec{Scripted: []ScriptedFault{
			{Step: cleanSteps + 1, Kind: FaultCorrupt, Node: poisonedRank},
		}},
		Recovery: RecoverySpec{CheckpointEverySteps: 2},
	}
	rep, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}

	if rep.Recoveries != realRecoveries {
		t.Fatalf("recovery count disagrees: sim %d vs real %d", rep.Recoveries, realRecoveries)
	}
	if rep.FinalSurvivors != realSurvivors {
		t.Fatalf("survivor count disagrees: sim %d vs real %d", rep.FinalSurvivors, realSurvivors)
	}
	if rep.Corruptions != 1 || rep.Crashes != 0 || rep.Hangs != 0 {
		t.Fatalf("sim misclassified the failure history: %+v", rep)
	}
	if rep.Dead {
		t.Fatalf("sim cluster died where the real one survived: %+v", rep)
	}
	if rep.RecoverySec <= 0 {
		t.Fatalf("sim priced the expulsion at zero: %+v", rep)
	}
}

// TestScenarioCrossValidatesReshapeAndWatchdog extends the cross-validation
// to the full production recovery loop: a crash, an expelled member
// rejoining under its old ID (scale-up through the pending-join path), a
// graceful drain, and finally a hung-but-heartbeating rank caught by the
// stuck-step watchdog. The real elastic cluster and the scripted scenario
// must agree on the facts both can state exactly: two recoveries (crash +
// hang), two budget-free reshapes (join + drain), two final survivors, and
// the event classification.
func TestScenarioCrossValidatesReshapeAndWatchdog(t *testing.T) {
	const (
		workers  = 4
		idle     = 150 * time.Millisecond // per-op deadline on the wedged epoch
		backstop = 2 * time.Second        // group-level watchdog (generous: per-op blame should win)
	)

	// --- real side.
	cfg := train.Config{
		Spec:           compress.MustSpec("ssgd"),
		Workers:        workers,
		BatchPerWorker: 16,
		Epochs:         1,
		Momentum:       0.9,
		Schedule:       train.Schedule{BaseLR: 0.05},
		Overlap:        train.OverlapOn,
		Seed:           7,
		Elastic: train.ElasticConfig{
			Enabled:          true,
			CheckpointEvery:  2,
			MaxRecoveries:    4,
			Backoff:          5 * time.Millisecond,
			HeartbeatTimeout: 200 * time.Millisecond,
			StepDeadline:     backstop,
		},
	}
	var builds int32
	cfg.NewTransports = func(p int) ([]comm.Transport, error) {
		ts, err := comm.NewInprocGroup(p, 0)
		if err != nil {
			return nil, err
		}
		// Build 4 is the post-drain epoch (initial, post-crash, post-join,
		// post-drain): its rank 1 wedges silently while peers carry per-op
		// deadlines, so only their blame identifies it.
		if atomic.AddInt32(&builds, 1) == 4 {
			for i := range ts {
				ts[i] = comm.WithDeadline(ts[i], idle)
			}
			ts[1] = comm.WithChaos(ts[1], comm.ChaosPlan{Stall: true})
		}
		return ts, nil
	}
	build := func(rng *rand.Rand) *nn.Model {
		return nn.NewModel(
			nn.NewDense("fc1", 16, 16, rng),
			nn.NewReLU("act"),
			nn.NewDense("head", 16, 4, rng),
		)
	}
	trainSet := data.GaussianMixture(1001, 256, 16, 4, 1.0)
	c, err := train.NewCluster(cfg, build, trainSet)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetLR(0.05)

	step := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := c.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}

	step(2)
	c.KillRank(3) // crash: next step rides through recovery to 3 ranks
	step(2)
	if c.Size() != 3 || c.Recoveries() != 1 {
		t.Fatalf("after crash: size=%d recoveries=%d", c.Size(), c.Recoveries())
	}
	// The expelled member's ID rejoins through the pending-join path — the
	// coordinator must not hold the old incarnation against it.
	if err := c.Join("w3"); err != nil {
		t.Fatalf("expelled ID could not rejoin: %v", err)
	}
	step(2) // first step re-forms at 4
	if c.Size() != 4 || c.Reshapes() != 1 {
		t.Fatalf("after rejoin: size=%d reshapes=%d", c.Size(), c.Reshapes())
	}
	if err := c.DrainRank(1); err != nil {
		t.Fatal(err)
	}
	// The next step drains w1 at the boundary (build 4)... whose rank 1
	// immediately wedges. The watchdog blames and expels it, and the same
	// Step call rides through that recovery too.
	step(2)

	realRecoveries, realReshapes, realSurvivors := c.Recoveries(), c.Reshapes(), c.Size()
	if realRecoveries != 2 {
		t.Fatalf("real run: %d recoveries, want 2 (crash + hang)", realRecoveries)
	}
	if realReshapes != 2 {
		t.Fatalf("real run: %d reshapes, want 2 (join + drain)", realReshapes)
	}
	if realSurvivors != 2 {
		t.Fatalf("real run: %d survivors, want 2", realSurvivors)
	}

	// --- simulated side: the same history, scripted. Node i stands in for
	// member "wi"; the hang targets node 2 because after the drain of node 1
	// the wedged rank 1 of the 3-rank group {w0, w2, w3} is w2.
	sc := &Scenario{
		Name:   "crossval-reshape",
		Seed:   42,
		Steps:  18,
		Model:  "resnet50",
		Method: "ssgd",
		Fleet: FleetSpec{
			Nodes:     workers,
			Templates: []NodeTemplate{{Name: "gpu", Weight: 1}},
		},
		Faults: FaultSpec{Scripted: []ScriptedFault{
			{Step: 2, Kind: FaultCrash, Node: 3},
			{Step: 6, Kind: EventJoin, Node: 3},
			{Step: 10, Kind: EventDrain, Node: 1},
			{Step: 14, Kind: FaultHang, Node: 2},
		}},
		Recovery: RecoverySpec{CheckpointEverySteps: 2, StepDeadlineSec: 2},
	}
	rep, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}

	if rep.Recoveries != realRecoveries {
		t.Fatalf("recovery count disagrees: sim %d vs real %d", rep.Recoveries, realRecoveries)
	}
	if rep.Reshapes != realReshapes {
		t.Fatalf("reshape count disagrees: sim %d vs real %d", rep.Reshapes, realReshapes)
	}
	if rep.FinalSurvivors != realSurvivors {
		t.Fatalf("survivor count disagrees: sim %d vs real %d", rep.FinalSurvivors, realSurvivors)
	}
	if rep.Crashes != 1 || rep.Joins != 1 || rep.Drains != 1 || rep.Hangs != 1 {
		t.Fatalf("sim misclassified the event history: %+v", rep)
	}
	if rep.Dead {
		t.Fatalf("sim cluster died where the real one survived: %+v", rep)
	}
	if rep.RecoverySec <= 0 || rep.ReshapeSec <= 0 {
		t.Fatalf("sim priced recoveries or reshapes at zero: %+v", rep)
	}
}
