// Command perfbench is the repository's end-to-end training benchmark. It
// trains the same deep MLP with a real train.Cluster (2 workers, one
// process, closed-loop synchronous SGD) on one named workload and prints
// every metric by name with its unit, then one JSON result line.
//
// With -trace 0 it reports the end-to-end metrics of untraced training.
// With -trace 1 it reports per-layer metrics: a traced training run through
// a counting transport, layer-by-layer replays of the step through each
// layer's public functions, standalone collectives, and a 1-worker
// baseline.
//
// Every training run is checked: replicas identical, losses finite, the
// target accuracy reached and the final accuracy above a floor. A failed
// check prints "correct": false and exits 1.
//
// Usage:
//
//	go run . -workload acp-slowlink -seed 1 -seconds 36 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// trials is how many independent clusters (sub-seeds of the run seed) an
// untraced run trains; averaging over them steadies tta_s, final_test_acc
// and setup_s, which vary from seed to seed.
const trials = 8

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics and correctness verdicts and prints them.
type report struct {
	out      io.Writer
	res      result
	problems []string
}

func newReport(out io.Writer) *report {
	return &report{out: out, res: result{Metrics: map[string]metric{}}}
}

func (r *report) add(name string, value float64, unit, note string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		// Only a run with no timed steps gets here; JSON cannot carry it.
		r.problems = append(r.problems, fmt.Sprintf("metric %s is %v", name, value))
		value = 0
	}
	r.res.Metrics[name] = metric{Value: value, Unit: unit}
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Fprintf(r.out, "metric %-28s %14.6f %-10s%s\n", name, value, unit, note)
}

// addTrial records a trial's step counts, digest and failed checks.
func (r *report) addTrial(label string, t *trial) {
	r.res.Attempted += t.attempted
	r.res.Failed += t.failed
	fmt.Fprintf(r.out, "%s: %d timed steps, step p50 %.3f ms, tta %.3f s, final acc %.4f, loss digest fnv64=%016x over %d steps\n",
		label, len(t.steps), median(ms(t.steps)), t.tta.Seconds(), t.finalAcc, t.digest, t.digestN)
	for _, p := range t.problems {
		r.problems = append(r.problems, label+": "+p)
	}
}

// finish prints the verdict and the JSON result line; it returns false when
// any check failed.
func (r *report) finish() bool {
	r.res.Correct = len(r.problems) == 0 && r.res.Attempted > 0
	for _, p := range r.problems {
		fmt.Fprintf(r.out, "FAILED CHECK: %s\n", p)
	}
	line, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return false
	}
	fmt.Fprintln(r.out, string(line))
	return r.res.Correct
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed: the dataset and the model initialisation derive from it")
	seconds := flag.Int("seconds", 30, "measuring time of the run")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	budget := time.Duration(*seconds) * time.Second
	rep := newReport(os.Stdout)
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", w.name, *seed, *seconds, *trace)
	if *trace == 0 {
		err = endToEnd(rep, w, *seed, budget)
	} else {
		err = perLayer(rep, w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.finish() {
		os.Exit(1)
	}
}

// subSeed derives trial i's seed from the run seed.
func subSeed(seed int64, i int) int64 { return seed*16 + int64(i) }

// endToEnd trains `trials` clusters for an equal share of the budget each
// and reports the end-to-end metrics.
func endToEnd(rep *report, w workload, seed int64, budget time.Duration) error {
	var ts []*trial
	for i := 0; i < trials; i++ {
		t, err := runTrial(w, subSeed(seed, i), budget/trials, minTimedSteps/trials+1, nil)
		if err != nil {
			return err
		}
		rep.addTrial(fmt.Sprintf("trial %d", i), t)
		ts = append(ts, t)
	}
	var steps []time.Duration
	var stepTime time.Duration
	var alloc uint64
	var setup, tta, acc, heap []float64
	for _, t := range ts {
		steps = append(steps, t.steps...)
		stepTime += t.stepTime()
		alloc += t.allocBytes
		setup = append(setup, t.setup.Seconds())
		tta = append(tta, t.tta.Seconds())
		acc = append(acc, t.finalAcc)
		heap = append(heap, float64(t.liveHeap)/(1<<20))
	}
	stepMs := ms(steps)
	n := len(steps)
	note := fmt.Sprintf("n=%d steps over %d trials", n, len(ts))
	perTrial := fmt.Sprintf("median of %d trials", len(ts))
	rep.add("setup_s", median(setup), "s", perTrial)
	rep.add("step_ms_p50", quantile(stepMs, 0.5), "ms", note)
	rep.add("step_ms_p90", quantile(stepMs, 0.9), "ms", note)
	rep.add("samples_per_s", float64(workers*w.batch*n)/stepTime.Seconds(), "samples/s", note)
	rep.add("tta_s", mean(tta), "s", fmt.Sprintf("target %.2f, mean of %d trials", target, len(ts)))
	rep.add("final_test_acc", median(acc), "fraction", perTrial)
	rep.add("alloc_kb_per_step", float64(alloc)/float64(n)/1024, "KiB", note)
	rep.add("live_heap_mb", median(heap), "MiB", perTrial)
	return nil
}

// minTimedSteps keeps at least ten step samples beyond the 90th
// percentile.
const minTimedSteps = 100

// perLayer splits the budget between an untraced and a traced training run
// of the same seed, the layer replay, the standalone collectives and the
// 1-worker baseline, and reports the per-layer metrics.
func perLayer(rep *report, w workload, seed int64, budget time.Duration) error {
	seed = subSeed(seed, 0)
	plain, err := runTrial(w, seed, budget*3/10, minTimedSteps, nil)
	if err != nil {
		return err
	}
	rep.addTrial("untraced", plain)
	counter := &wireCounter{}
	traced, err := runTrial(w, seed, budget*3/10, minTimedSteps, counter)
	if err != nil {
		return err
	}
	rep.addTrial("traced", traced)
	lt, err := replayLayers(w, seed, budget*2/10)
	if err != nil {
		return err
	}
	coll, err := collectiveMs(w, lt, budget/10)
	if err != nil {
		return err
	}
	single, err := singleWorkerSteps(w, seed, budget/10)
	if err != nil {
		return err
	}

	p50 := median(ms(traced.steps))
	plainP50 := median(ms(plain.steps))
	exact := fmt.Sprintf("exact, first %d timed steps", countSteps)
	perRank := float64(len(traced.steps) * workers)
	rep.add("comm.wire_kb_per_step", float64(traced.wire.bytes)/countSteps/1024, "KiB", exact)
	rep.add("comm.msgs_per_step", float64(traced.wire.msgs)/countSteps, "count", exact)
	rep.add("comm.send_ms", float64(traced.wireAll.sendNs)/1e6/perRank, "ms", "per rank per step")
	rep.add("comm.recv_wait_ms", float64(traced.wireAll.recvNs)/1e6/perRank, "ms", "per rank per step")
	rep.add("comm.collective_ms", median(coll), "ms", fmt.Sprintf("median of %d", len(coll)))

	replay := fmt.Sprintf("replay median of %d rank-steps", len(lt.forward))
	parts := 0.0
	for _, l := range []struct {
		name string
		ms   []float64
	}{
		{"data.batch_ms", lt.batch},
		{"nn.forward_ms", lt.forward},
		{"nn.backward_ms", lt.backward},
		{"compress.encode_ms", lt.encode},
		{"compress.decode_ms", lt.decode},
		{"train.apply_ms", lt.apply},
	} {
		v := median(l.ms)
		rep.add(l.name, v, "ms", replay)
		parts += v
	}
	rep.add("compress.ratio", lt.ratio(), "ratio", fmt.Sprintf("exact, first %d replay steps", ratioSteps))

	rep.add("train.checkpoint_stall_ms", checkpointStall(traced), "ms", "checkpoint steps minus others, means")
	rep.add("train.exposed_ms", p50-parts, "ms", "traced step p50 minus the layer parts")
	rep.add("train.single_worker_step_ms", median(ms(single)), "ms", fmt.Sprintf("1 worker, n=%d", len(single)))
	rep.add("trace.overhead_pct", (p50-plainP50)/plainP50*100, "%", "traced vs untraced step p50")
	attempted := plain.attempted + traced.attempted
	rep.add("failed_step_ratio", float64(plain.failed+traced.failed)/float64(attempted), "ratio",
		fmt.Sprintf("of %d steps", attempted))
	return nil
}

// checkpointStall is the mean time of steps that took an elastic checkpoint
// minus the mean time of the other steps; 0 without checkpoints.
func checkpointStall(t *trial) float64 {
	var with, without []float64
	for i, d := range ms(t.steps) {
		if t.ckpt[i] {
			with = append(with, d)
		} else {
			without = append(without, d)
		}
	}
	if len(with) == 0 {
		return 0
	}
	return mean(with) - mean(without)
}
