package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"acpsgd/internal/train"
)

const (
	// warmupSteps run before the first timed step and count toward setup_s.
	warmupSteps = 5
	// evalEvery is the evaluation cadence (in timed steps) until the target
	// accuracy is reached.
	evalEvery = 5
	// digestSteps losses (warm-up included) feed the printed loss digest.
	digestSteps = 64
	// countSteps timed steps bound the exact wire counts. It is even, so
	// ACP-SGD's alternating P and Q steps weigh equally.
	countSteps = 16
	// checkpointEvery is the elastic runtime's default checkpoint cadence,
	// used to tell checkpointing steps from the others.
	checkpointEvery = 8
	overrun         = 3
)

// trial is one training run: set up a cluster, train it for a time budget,
// and check the result.
type trial struct {
	setup time.Duration
	// steps are the timed Cluster.Step wall times; ckpt marks the steps that
	// took an elastic checkpoint.
	steps []time.Duration
	ckpt  []bool
	// tta is the time from the first timed step to the first evaluation at
	// or above the target, evaluations included; negative when never reached.
	tta      time.Duration
	finalAcc float64
	// allocBytes is TotalAlloc over the timed steps, evaluations excluded.
	allocBytes uint64
	liveHeap   uint64
	attempted  int
	failed     int
	digest     uint64
	digestN    int
	// wire covers the first countSteps timed steps, wireAll every timed step
	// (traced trials only).
	wire, wireAll wireSnapshot
	problems      []string
}

func (t *trial) stepTime() time.Duration {
	var sum time.Duration
	for _, d := range t.steps {
		sum += d
	}
	return sum
}

// runTrial trains one cluster of the workload for budget, for at least
// minSteps timed steps, and until the target is reached. A non-nil counter
// traces the transports. Failed checks are recorded in problems; the
// returned error is reserved for set-up failures.
func runTrial(w workload, seed int64, budget time.Duration, minSteps int, counter *wireCounter) (*trial, error) {
	t := &trial{tta: -1}
	start := time.Now()
	trainSet, testSet, err := datasets(seed)
	if err != nil {
		return nil, err
	}
	cfg, err := w.config(seed, workers, counter)
	if err != nil {
		return nil, err
	}
	c, err := train.NewCluster(cfg, buildModel, trainSet)
	if err != nil {
		return nil, fmt.Errorf("new cluster: %w", err)
	}
	defer c.Close()
	c.SetLR(lr)

	var losses []float64
	done := 0 // successful steps since NewCluster
	step := func() (time.Duration, error) {
		t.attempted++
		t0 := time.Now()
		loss, err := c.Step()
		d := time.Since(t0)
		if err != nil {
			t.failed++
			t.problems = append(t.problems, fmt.Sprintf("step %d: %v", t.attempted, err))
			return d, err
		}
		done++
		losses = append(losses, loss)
		return d, nil
	}
	for i := 0; i < warmupSteps; i++ {
		if _, err := step(); err != nil {
			return t, nil
		}
	}
	t.setup = time.Since(start)
	recoveries := c.Recoveries()

	var snap0 wireSnapshot
	if counter != nil {
		snap0 = counter.snapshot()
	}
	var m0, m1, e0, e1 runtime.MemStats
	var evalAlloc uint64
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	// A trial that has not reached the target by the end of its budget
	// keeps training, up to overrun times the budget, so a slow seed costs
	// time instead of failing the run.
	for n := 1; n <= minSteps || time.Since(t0) < budget || (t.tta < 0 && time.Since(t0) < overrun*budget); n++ {
		d, err := step()
		if err != nil {
			break
		}
		t.steps = append(t.steps, d)
		t.ckpt = append(t.ckpt, w.elastic && done%checkpointEvery == 0)
		if counter != nil && n == countSteps {
			t.wire = counter.snapshot().sub(snap0)
		}
		if t.tta < 0 && n%evalEvery == 0 {
			runtime.ReadMemStats(&e0)
			acc := c.Evaluate(testSet)
			runtime.ReadMemStats(&e1)
			evalAlloc += e1.TotalAlloc - e0.TotalAlloc
			if acc >= target {
				t.tta = time.Since(t0)
			}
		}
	}
	runtime.ReadMemStats(&m1)
	t.allocBytes = m1.TotalAlloc - m0.TotalAlloc - evalAlloc
	if counter != nil {
		t.wireAll = counter.snapshot().sub(snap0)
	}

	t.finalAcc = c.Evaluate(testSet)
	t.failed += c.Recoveries() - recoveries
	t.check(losses, c.CheckSync())
	runtime.GC()
	runtime.ReadMemStats(&m1)
	t.liveHeap = m1.HeapAlloc

	n := min(len(losses), digestSteps)
	t.digest, t.digestN = lossDigest(losses[:n]), n
	return t, nil
}

// check applies the correctness gate: replicas identical, every loss
// finite, the target reached and the final accuracy at or above the floor.
func (t *trial) check(losses []float64, syncErr error) {
	if syncErr != nil {
		t.problems = append(t.problems, syncErr.Error())
	}
	for i, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.problems = append(t.problems, fmt.Sprintf("loss of step %d is %v", i+1, l))
			break
		}
	}
	if t.tta < 0 {
		t.problems = append(t.problems, fmt.Sprintf("target accuracy %.2f never reached", target))
	}
	if t.finalAcc < floor {
		t.problems = append(t.problems, fmt.Sprintf("final test accuracy %.4f below floor %.2f", t.finalAcc, floor))
	}
	if t.failed > 0 {
		t.problems = append(t.problems, fmt.Sprintf("%d failed or recovered steps", t.failed))
	}
}

// singleWorkerSteps times Cluster.Step on a 1-worker cluster of the same
// model, batch and method: the plain single-worker baseline.
func singleWorkerSteps(w workload, seed int64, budget time.Duration) ([]time.Duration, error) {
	trainSet, _, err := datasets(seed)
	if err != nil {
		return nil, err
	}
	cfg, err := w.config(seed, 1, nil)
	if err != nil {
		return nil, err
	}
	c, err := train.NewCluster(cfg, buildModel, trainSet)
	if err != nil {
		return nil, fmt.Errorf("new 1-worker cluster: %w", err)
	}
	defer c.Close()
	c.SetLR(lr)
	var steps []time.Duration
	start := time.Now()
	for n := -warmupSteps; n < 20 || time.Since(start) < budget; n++ {
		t0 := time.Now()
		if _, err := c.Step(); err != nil {
			return nil, fmt.Errorf("1-worker step: %w", err)
		}
		if n >= 0 {
			steps = append(steps, time.Since(t0))
		}
	}
	return steps, nil
}
