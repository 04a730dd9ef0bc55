package train

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"acpsgd/internal/comm"
	"acpsgd/internal/compress"
	"acpsgd/internal/data"
)

// smokeConfig is the shared 4-worker configuration of the convergence smoke
// and bit-identity tests.
func smokeConfig(spec string, overlap Overlap) Config {
	return Config{
		Spec:           compress.MustSpec(spec),
		Workers:        4,
		BatchPerWorker: 16,
		Epochs:         1, // epochs are driven manually through Cluster.Step
		Momentum:       0.9,
		Schedule:       Schedule{BaseLR: 0.05},
		Overlap:        overlap,
		Seed:           7,
	}
}

// stepLosses advances the cluster n steps and returns every per-step loss.
func stepLosses(t *testing.T, c *Cluster, n int) []float64 {
	t.Helper()
	losses := make([]float64, n)
	for i := range losses {
		loss, err := c.Step()
		if err != nil {
			t.Fatal(err)
		}
		losses[i] = loss
	}
	return losses
}

// TestMultiWorkerConvergenceSmoke: four inproc workers per method must reach
// a seeded loss threshold, and the overlap=on run must match the overlap=off
// run bit for bit — same per-step losses, identical model state on every
// rank. This is the end-to-end determinism guarantee of the overlap
// scheduler: launch order equals seal order in both modes.
func TestMultiWorkerConvergenceSmoke(t *testing.T) {
	methods := []struct {
		spec    string
		maxLoss float64
	}{
		{"topk:ratio=0.05", 0.7},
		{"dgc:ratio=0.05", 0.7},
		{"power:rank=2", 0.7},
		{"sign", 0.9}, // constant-magnitude updates converge more slowly
	}
	const steps = 48
	trainSet := data.GaussianMixture(1001, 768, 16, 4, 1.0)
	build := buildMLP(16, 32, 4)
	for _, m := range methods {
		t.Run(m.spec, func(t *testing.T) {
			on, err := NewCluster(smokeConfig(m.spec, OverlapOn), build, trainSet)
			if err != nil {
				t.Fatal(err)
			}
			defer on.Close()
			off, err := NewCluster(smokeConfig(m.spec, OverlapOff), build, trainSet)
			if err != nil {
				t.Fatal(err)
			}
			defer off.Close()
			on.SetLR(0.05)
			off.SetLR(0.05)

			lossesOn := stepLosses(t, on, steps)
			lossesOff := stepLosses(t, off, steps)

			// Convergence: the tail of the loss curve is under threshold.
			tail := 0.0
			for _, l := range lossesOn[steps-8:] {
				tail += l
			}
			tail /= 8
			if math.IsNaN(tail) || tail > m.maxLoss {
				t.Fatalf("%s: tail loss %.4f above threshold %.2f", m.spec, tail, m.maxLoss)
			}

			// Bit-identity, step by step and in the final weights.
			for i := range lossesOn {
				if lossesOn[i] != lossesOff[i] {
					t.Fatalf("%s: step %d loss diverged: overlap=on %.17g vs off %.17g",
						m.spec, i, lossesOn[i], lossesOff[i])
				}
			}
			if err := on.CheckSync(); err != nil {
				t.Fatal(err)
			}
			if err := off.CheckSync(); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < on.Size(); r++ {
				po, pf := on.Model(r).Params(), off.Model(r).Params()
				for i := range po {
					for j, v := range po[i].W.Data {
						if v != pf[i].W.Data[j] {
							t.Fatalf("%s: rank %d param %s[%d] differs bit-wise: %g vs %g",
								m.spec, r, po[i].Name, j, v, pf[i].W.Data[j])
						}
					}
				}
			}
		})
	}
}

// faultyTransports wraps one rank of a transport group with an injected
// failure budget.
func faultyTransports(base func(int) ([]comm.Transport, error), rank, budget int) func(int) ([]comm.Transport, error) {
	return func(p int) ([]comm.Transport, error) {
		ts, err := base(p)
		if err != nil {
			return nil, err
		}
		ts[rank] = comm.WithChaos(ts[rank], comm.ChaosPlan{After: budget, Fail: 1})
		return ts, nil
	}
}

// TestOverlapSchedulerFaultPropagation: a rank whose transport starts
// failing mid-step must surface its injected error through Cluster.Step —
// with the whole group torn down so no peer deadlocks in a collective — on
// both transports, with overlap on and off, and at several failure points
// (so faults land during sends, receives and different buckets). Run with
// -race in CI: the teardown path exercises concurrent bucket launches
// against transport close.
func TestOverlapSchedulerFaultPropagation(t *testing.T) {
	bases := []struct {
		name string
		make func(int) ([]comm.Transport, error)
	}{
		{"inproc", func(p int) ([]comm.Transport, error) { return comm.NewInprocGroup(p, 0) }},
		{"tcp", comm.NewTCPGroup},
	}
	trainSet := data.GaussianMixture(1001, 256, 16, 4, 1.0)
	build := buildMLP(16, 32, 4)
	for _, base := range bases {
		for _, overlap := range []Overlap{OverlapOn, OverlapOff} {
			for _, budget := range []int{0, 3, 17} {
				name := fmt.Sprintf("%s/overlap=%s/budget=%d", base.name, overlap, budget)
				t.Run(name, func(t *testing.T) {
					cfg := smokeConfig("ssgd", overlap)
					cfg.BufferBytes = 64 // several buckets per step
					cfg.NewTransports = faultyTransports(base.make, 1, budget)
					c, err := NewCluster(cfg, build, trainSet)
					if err != nil {
						t.Fatal(err)
					}
					defer c.Close()
					c.SetLR(0.05)
					var stepErr error
					for i := 0; i < 50 && stepErr == nil; i++ {
						_, stepErr = c.Step()
					}
					if stepErr == nil {
						t.Fatal("injected fault never surfaced")
					}
					if !errors.Is(stepErr, comm.ErrInjected) {
						t.Fatalf("expected the injected fault as root cause, got: %v", stepErr)
					}
					// The cluster is dead after an abort; further steps fail
					// rather than hanging.
					if _, err := c.Step(); err == nil {
						t.Fatal("step after abort should fail")
					}
				})
			}
		}
	}
}

// TestOverlapModeValidation: unknown overlap values are rejected up front.
func TestOverlapModeValidation(t *testing.T) {
	cfg := smokeConfig("ssgd", Overlap(42))
	trainSet := data.GaussianMixture(1001, 64, 16, 4, 1.0)
	if _, err := NewCluster(cfg, buildMLP(16, 8, 4), trainSet); err == nil {
		t.Fatal("expected validation error for unknown overlap mode")
	}
}
