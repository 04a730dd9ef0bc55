package sim

import (
	"fmt"
	"sort"

	"acpsgd/internal/compress"
	"acpsgd/internal/models"
)

// This file is the fleet-scale scenario engine: it expands a Scenario into
// a seeded fleet, walks the declared number of training steps injecting
// failures from the fault sampler, prices each step with the existing
// discrete-event iteration model and each recovery with the elastic
// recovery estimator, and accumulates the machine-readable FleetReport.
//
// Scale comes from two observations. First, Simulate's cost is independent
// of the worker count (workers only enter closed-form collective times), so
// a 1000-node step costs the same to price as a 4-node one. Second, the
// ring's step time depends on the fleet only through its bottleneck
// signature (slowest link, largest hop latency, slowest GPU, head count) —
// which changes only when membership changes — so step results are memoized
// per signature and a chaos-free stretch of thousands of steps prices one
// Simulate call. The engine pool underneath (engine.go) recycles the task
// slab across those calls.

// bottleneck is the fleet's current ring-limiting signature: the slowest
// surviving link, the largest hop latency, the least efficient all-gather,
// the slowest GPU and the smallest memory. It doubles as the memo key for
// priced iterations.
type bottleneck struct {
	workers      int
	bandwidth    float64
	alpha        float64
	gatherEff    float64
	computeScale float64
	memoryBytes  float64
}

// fleetRun is the mutable state of one scenario execution.
type fleetRun struct {
	sc    *Scenario
	model *models.ModelSpec
	spec  compress.Spec
	mode  Mode

	fleet      []Node
	alive      []bool
	aliveCount int

	// aliveZones caches the sorted zones that still have survivors, and
	// zoneAlive the per-zone survivor counts backing it.
	zoneAlive  map[string]int
	aliveZones []string

	stepCache map[bottleneck]Result
	recCache  map[recoveryKey]RecoveryResult
}

// recoveryKey memoizes transition pricing on the post-event signature plus
// the pre-event head count (detection and re-form are priced at the old
// size, replay and restore at the new) and the transition kind — a hang and
// a caught corruption each have a different detection window than a crash,
// and a reshape has none.
type recoveryKey struct {
	after  bottleneck
	before int
	kind   int // transCrash, transHang, transCorrupt or transReshape
}

const (
	transCrash = iota
	transHang
	transCorrupt
	transReshape
)

// RunScenario executes the scenario with its embedded seed.
func RunScenario(sc *Scenario) (*FleetReport, error) {
	return RunScenarioSeed(sc, sc.Seed)
}

// RunScenarioSeed executes the scenario under an explicit seed (the CLI's
// -seed override). The same (scenario, seed) pair always produces a
// byte-identical report.
func RunScenarioSeed(sc *Scenario, seed int64) (*FleetReport, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	model, err := models.ByName(sc.Model)
	if err != nil {
		return nil, err
	}
	spec, err := sc.spec()
	if err != nil {
		return nil, err
	}
	mode, _ := parseMode(sc.Mode) // 0 (the method's default) when unset

	// Sub-seeds keep the fleet layout and the failure history on
	// independent streams: changing a fault rate cannot reshuffle the
	// generated hardware.
	fleet, err := GenerateFleet(sc.Fleet, sc.defaultNet(), seed)
	if err != nil {
		return nil, err
	}
	sampler := newFaultSampler(&sc.Faults, seed^0x66a66e5c71f3d1a7)

	r := &fleetRun{
		sc:         sc,
		model:      model,
		spec:       spec,
		mode:       mode,
		fleet:      fleet,
		alive:      make([]bool, len(fleet)),
		aliveCount: len(fleet),
		zoneAlive:  make(map[string]int),
		stepCache:  make(map[bottleneck]Result),
		recCache:   make(map[recoveryKey]RecoveryResult),
	}
	for i := range r.alive {
		r.alive[i] = true
	}
	for _, n := range fleet {
		r.zoneAlive[n.Zone]++
	}
	r.refreshAliveZones()

	rep := &FleetReport{
		Schema:    1,
		Scenario:  sc.Name,
		Seed:      seed,
		Nodes:     len(fleet),
		Templates: make(map[string]int),
		Zones:     make(map[string]int),
	}
	for _, n := range fleet {
		rep.Templates[n.Template]++
		rep.Zones[n.Zone]++
	}

	minNodes := sc.Recovery.minNodes()
	rc := sc.Recovery.config()
	stepSecs := make([]float64, 0, sc.Steps)

	for step := 1; step <= sc.Steps; step++ {
		events := sampler.sample(step, r.fleet, r.alive, r.aliveZones)
		if len(events) > 0 {
			before := r.bottleneck()
			failures, reshapes := 0, 0
			sawCrash, sawHang, sawCorrupt := false, false, false
			for _, ev := range events {
				switch ev.Kind {
				case FaultCrash:
					if r.kill(ev.Node) {
						rep.Crashes++
					}
					failures++
					sawCrash = true
				case FaultTransient:
					rep.Transients++
					failures++
					sawCrash = true
				case FaultZoneOutage:
					if killed := r.killZone(ev.Zone); killed > 0 {
						rep.ZoneOutages++
						rep.Crashes += killed
					}
					failures++
					sawCrash = true
				case FaultHang:
					// A hung rank keeps heartbeating but is expelled by the
					// watchdog, so it leaves the fleet like a crash — only
					// the detection pricing differs.
					if r.kill(ev.Node) {
						rep.Hangs++
					}
					failures++
					sawHang = true
				case FaultCorrupt:
					// A corrupting rank is caught in-collective by the
					// integrity checks and expelled like a crash, but with
					// only the membership barrier as its detection window.
					if r.kill(ev.Node) {
						rep.Corruptions++
					}
					failures++
					sawCorrupt = true
				case EventJoin:
					if r.revive(ev.Node) {
						rep.Joins++
						reshapes++
					}
				case EventDrain:
					if r.kill(ev.Node) {
						rep.Drains++
						reshapes++
					}
				}
			}
			if r.aliveCount < minNodes {
				rep.Dead = true
				// The re-form attempt that found too few survivors.
				if failures > 0 {
					rep.Recoveries++
				} else {
					rep.Reshapes++
				}
				break
			}
			switch {
			case failures > 0:
				// One recovery covers everything the step lost, matching the
				// runtime: a failed Step stabilizes membership once and
				// re-forms once, however many ranks went missing — and any
				// join or drain pending the same step folds into that
				// re-form for free. The detection window is the slowest one
				// any failure this step needs: a crash-class fault must wait
				// out heartbeat expiry regardless of what else happened, a
				// hang the watchdog deadline, and a caught corruption only
				// the membership barrier.
				kind := transCorrupt
				switch {
				case sawCrash || !sawHang && !sawCorrupt:
					kind = transCrash
				case sawHang:
					kind = transHang
				}
				rec, err := r.priceRecovery(before, rc, kind)
				if err != nil {
					return nil, fmt.Errorf("sim: scenario %q step %d: %w", sc.Name, step, err)
				}
				rep.Recoveries++
				rep.RecoverySec += rec.TotalSec
			case reshapes > 0:
				// Joins and drains alone are one budget-free boundary
				// reshape, however many landed this step.
				rec, err := r.priceReshape(rc)
				if err != nil {
					return nil, fmt.Errorf("sim: scenario %q step %d: %w", sc.Name, step, err)
				}
				rep.Reshapes++
				rep.ReshapeSec += rec.TotalSec
			}
		}

		res, err := r.priceStep()
		if err != nil {
			return nil, fmt.Errorf("sim: scenario %q step %d: %w", sc.Name, step, err)
		}
		stepSecs = append(stepSecs, res.TotalSec)
		rep.FFBPSec += res.FFBPSec
		rep.EncodeSec += res.EncodeSec
		rep.DecodeSec += res.DecodeSec
		rep.WireSec += res.WireSec
		rep.ExposedCommSec += res.CommSec
		rep.WireBytes += res.PayloadBytes * float64(r.aliveCount)
		rep.TrainSec += res.TotalSec
	}

	rep.Steps = len(stepSecs)
	rep.FinalSurvivors = r.aliveCount
	rep.summarizeSteps(stepSecs)
	rep.TotalSec = rep.TrainSec + rep.RecoverySec + rep.ReshapeSec
	if rep.TotalSec > 0 {
		rep.StepsPerSec = float64(rep.Steps) / rep.TotalSec
	}
	return rep, nil
}

// kill marks a node dead; reports whether it was alive.
func (r *fleetRun) kill(id int) bool {
	if !r.alive[id] {
		return false
	}
	r.alive[id] = false
	r.aliveCount--
	zone := r.fleet[id].Zone
	r.zoneAlive[zone]--
	if r.zoneAlive[zone] == 0 {
		r.refreshAliveZones()
	}
	return true
}

// revive returns a dead node to the fleet (an elastic join); reports whether
// it was actually dead.
func (r *fleetRun) revive(id int) bool {
	if r.alive[id] {
		return false
	}
	r.alive[id] = true
	r.aliveCount++
	zone := r.fleet[id].Zone
	r.zoneAlive[zone]++
	if r.zoneAlive[zone] == 1 {
		r.refreshAliveZones()
	}
	return true
}

// killZone crashes every survivor in the zone, returning how many died.
func (r *fleetRun) killZone(zone string) int {
	killed := 0
	for _, n := range r.fleet {
		if r.alive[n.ID] && n.Zone == zone {
			r.alive[n.ID] = false
			r.aliveCount--
			killed++
		}
	}
	if killed > 0 {
		r.zoneAlive[zone] = 0
		r.refreshAliveZones()
	}
	return killed
}

func (r *fleetRun) refreshAliveZones() {
	r.aliveZones = r.aliveZones[:0]
	for zone, n := range r.zoneAlive {
		if n > 0 {
			r.aliveZones = append(r.aliveZones, zone)
		}
	}
	sort.Strings(r.aliveZones)
}

// bottleneck computes the surviving fleet's ring-limiting signature.
func (r *fleetRun) bottleneck() bottleneck {
	b := bottleneck{workers: r.aliveCount}
	first := true
	for _, n := range r.fleet {
		if !r.alive[n.ID] {
			continue
		}
		if first {
			b.bandwidth = n.Net.Bandwidth
			b.alpha = n.Net.Alpha
			b.gatherEff = n.Net.AllGatherEff
			b.computeScale = n.ComputeScale
			b.memoryBytes = n.MemoryBytes
			first = false
			continue
		}
		if n.Net.Bandwidth < b.bandwidth {
			b.bandwidth = n.Net.Bandwidth
		}
		if n.Net.Alpha > b.alpha {
			b.alpha = n.Net.Alpha
		}
		if n.Net.AllGatherEff < b.gatherEff {
			b.gatherEff = n.Net.AllGatherEff
		}
		if n.ComputeScale > b.computeScale {
			b.computeScale = n.ComputeScale
		}
		if n.MemoryBytes < b.memoryBytes {
			b.memoryBytes = n.MemoryBytes
		}
	}
	return b
}

// config assembles the iteration Config for a bottleneck signature.
func (r *fleetRun) config(b bottleneck) Config {
	// The slowest GPU paces the synchronous ring: scale the calibrated
	// FF&BP time on a copy of the model spec (specs are read-only shared
	// state; Tensors is shared shallowly).
	m := *r.model
	m.RefComputeSec *= b.computeScale
	gpu := DefaultGPU()
	gpu.MemoryBytes = b.memoryBytes
	return Config{
		Model:   &m,
		Spec:    r.spec,
		Mode:    r.mode,
		Workers: b.workers,
		Net: Network{
			Name:         "fleet-bottleneck",
			Alpha:        b.alpha,
			Bandwidth:    b.bandwidth,
			AllGatherEff: b.gatherEff,
		},
		GPU:            gpu,
		BufferBytes:    r.sc.BufferMB * 1024 * 1024,
		PipelineChunks: r.sc.PipelineChunks,
	}
}

// priceStep returns the memoized iteration result for the current fleet.
func (r *fleetRun) priceStep() (Result, error) {
	b := r.bottleneck()
	if res, ok := r.stepCache[b]; ok {
		return res, nil
	}
	res, err := Simulate(r.config(b))
	if err != nil {
		return Result{}, err
	}
	if res.OOM {
		return Result{}, fmt.Errorf("model %s does not fit the %0.1fGB bottleneck GPU (method %s, %d workers)",
			r.sc.Model, b.memoryBytes/1e9, r.spec, b.workers)
	}
	r.stepCache[b] = res
	return res, nil
}

// priceRecovery prices one re-form from the pre-failure fleet to the
// current survivors. kind selects the detection window — the heartbeat
// timeout for crash-class failures (transCrash), the stuck-step watchdog
// deadline when every failure this step was a hang (transHang), and just
// the membership barrier when the step only caught corruption (transCorrupt:
// integrity checks fail inside the collective, so there is nothing to wait
// for beyond Stabilize).
func (r *fleetRun) priceRecovery(before bottleneck, rc RecoveryConfig, kind int) (RecoveryResult, error) {
	after := r.bottleneck()
	key := recoveryKey{after: after, before: before.workers, kind: kind}
	if rec, ok := r.recCache[key]; ok {
		return rec, nil
	}
	// Price detection and re-form at the pre-failure size, replay and
	// restore at the survivors': the estimators take the pre-failure
	// config and the survivor count. The survivor bottleneck may differ
	// from the pre-failure one (the crashed node could have been the
	// straggler), so build the config from the post-failure signature but
	// keep the pre-failure head count.
	cfg := r.config(after)
	cfg.Workers = before.workers
	var rec RecoveryResult
	var err error
	switch kind {
	case transHang:
		rec, err = EstimateHangTo(cfg, rc, after.workers)
	case transCorrupt:
		rec, err = EstimateCorruptTo(cfg, rc, after.workers)
	default:
		rec, err = EstimateRecoveryTo(cfg, rc, after.workers)
	}
	if err != nil {
		return RecoveryResult{}, err
	}
	r.recCache[key] = rec
	return rec, nil
}

// priceReshape prices one planned boundary re-form (joins/drains) at the
// current fleet.
func (r *fleetRun) priceReshape(rc RecoveryConfig) (RecoveryResult, error) {
	after := r.bottleneck()
	key := recoveryKey{after: after, before: after.workers, kind: transReshape}
	if rec, ok := r.recCache[key]; ok {
		return rec, nil
	}
	rec, err := EstimateReshapeTo(r.config(after), rc, after.workers)
	if err != nil {
		return RecoveryResult{}, err
	}
	r.recCache[key] = rec
	return rec, nil
}
