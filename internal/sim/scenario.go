package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"acpsgd/internal/compress"
	"acpsgd/internal/models"
)

// This file defines the declarative scenario format behind
// `acpsim -scenario`: one JSON document that names a paper model and
// aggregation method, declares a generated fleet (weighted hardware
// templates + zones), a failure-injection spec, and the elastic-runtime
// recovery knobs. A scenario plus a seed is a complete, bit-reproducible
// experiment: the committed scenarios/ library and the golden-report
// regression tests both build on that property.

// RecoverySpec carries the elastic-runtime knobs a scenario prices
// recoveries with; it mirrors sim.RecoveryConfig/train.ElasticConfig in
// file-friendly units.
type RecoverySpec struct {
	// CheckpointEverySteps is the periodic snapshot interval (default 8).
	CheckpointEverySteps int `json:"checkpoint_every_steps,omitempty"`
	// HeartbeatTimeoutSec is the liveness window (default 0.25s).
	HeartbeatTimeoutSec float64 `json:"heartbeat_timeout_sec,omitempty"`
	// BackoffSec is the re-form backoff (default 0.1s).
	BackoffSec float64 `json:"backoff_sec,omitempty"`
	// RestoreGbps is the per-worker checkpoint-restore rate; 0 skips the
	// restore term.
	RestoreGbps float64 `json:"restore_gbps,omitempty"`
	// StepDeadlineSec is the stuck-step watchdog deadline; it prices the
	// detection window of "hang" faults. 0 models a watchdog-free runtime
	// (hangs detected only through the heartbeat window).
	StepDeadlineSec float64 `json:"step_deadline_sec,omitempty"`
	// MinNodes is the smallest surviving fleet the run may continue with;
	// dropping below it marks the scenario's cluster dead (default 1).
	MinNodes int `json:"min_nodes,omitempty"`
}

func (r *RecoverySpec) validate() error {
	if r.CheckpointEverySteps < 0 || r.MinNodes < 0 {
		return fmt.Errorf("sim: recovery spec has negative step terms")
	}
	if r.HeartbeatTimeoutSec < 0 || r.BackoffSec < 0 || r.RestoreGbps < 0 || r.StepDeadlineSec < 0 {
		return fmt.Errorf("sim: recovery spec has negative time terms")
	}
	return nil
}

// config resolves defaults into the RecoveryConfig the estimator takes.
func (r *RecoverySpec) config() RecoveryConfig {
	rc := RecoveryConfig{
		CheckpointEverySteps: r.CheckpointEverySteps,
		HeartbeatTimeoutSec:  r.HeartbeatTimeoutSec,
		BackoffSec:           r.BackoffSec,
		RestoreBandwidth:     r.RestoreGbps * 1e9 / 8,
		StepDeadlineSec:      r.StepDeadlineSec,
	}
	if rc.CheckpointEverySteps == 0 {
		rc.CheckpointEverySteps = 8
	}
	if rc.HeartbeatTimeoutSec == 0 {
		rc.HeartbeatTimeoutSec = 0.25
	}
	if rc.BackoffSec == 0 {
		rc.BackoffSec = 0.1
	}
	return rc
}

func (r *RecoverySpec) minNodes() int {
	if r.MinNodes < 1 {
		return 1
	}
	return r.MinNodes
}

// Scenario is one declarative fleet-scale run.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Seed makes the run bit-reproducible; the CLI may override it.
	Seed int64 `json:"seed,omitempty"`
	// Steps is the number of training steps to price.
	Steps int `json:"steps"`
	// Model is a paper model name ("resnet50", "bert-large", ...).
	Model string `json:"model"`
	// Method is a simulatable method name ("ssgd", "sign", "topk",
	// "power", "acp"); Rank and TopKRatio fold into its spec params.
	Method string `json:"method"`
	// Mode overrides the execution mode ("naive", "wfbp", "wfbp+tf");
	// empty uses the paper's default for the method.
	Mode string `json:"mode,omitempty"`
	// Rank is the low-rank rank (0 = the model's paper default).
	Rank int `json:"rank,omitempty"`
	// TopKRatio is the top-k density (0 = the paper's 0.1%).
	TopKRatio float64 `json:"topk_ratio,omitempty"`
	// BufferMB overrides the 25MB fusion budget.
	BufferMB int `json:"buffer_mb,omitempty"`
	// PipelineChunks enables intra-buffer chunk pipelining in the model.
	PipelineChunks int `json:"pipeline_chunks,omitempty"`
	// Network is the fleet-wide default interconnect preset (default
	// "10gbe"); templates may override per class.
	Network string `json:"network,omitempty"`

	Fleet    FleetSpec    `json:"fleet"`
	Faults   FaultSpec    `json:"faults,omitempty"`
	Recovery RecoverySpec `json:"recovery,omitempty"`
}

// parseMode resolves a scenario mode string; ok=false on unknown names.
func parseMode(s string) (Mode, bool) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "naive":
		return ModeNaive, true
	case "wfbp":
		return ModeWFBP, true
	case "wfbp+tf", "wfbptf", "tf":
		return ModeWFBPTF, true
	default:
		return 0, false
	}
}

// Validate checks every cross-field invariant: the model and method must
// resolve, the fleet must be generatable, and every scripted fault must
// target a declared node or zone within the step range.
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("sim: scenario has no name")
	}
	if sc.Steps < 1 {
		return fmt.Errorf("sim: scenario %q must run >= 1 step, got %d", sc.Name, sc.Steps)
	}
	if sc.Steps > 1<<20 {
		return fmt.Errorf("sim: scenario %q declares %d steps, beyond the %d cap", sc.Name, sc.Steps, 1<<20)
	}
	if _, err := models.ByName(sc.Model); err != nil {
		return fmt.Errorf("sim: scenario %q: %w", sc.Name, err)
	}
	if sc.Mode != "" {
		if _, ok := parseMode(sc.Mode); !ok {
			return fmt.Errorf("sim: scenario %q: unknown mode %q", sc.Name, sc.Mode)
		}
	}
	if sc.Rank < 0 || sc.TopKRatio < 0 || sc.TopKRatio > 1 || sc.BufferMB < 0 || sc.PipelineChunks < 0 {
		return fmt.Errorf("sim: scenario %q has negative or out-of-range method knobs", sc.Name)
	}
	if _, err := sc.spec(); err != nil {
		return fmt.Errorf("sim: scenario %q: %w", sc.Name, err)
	}
	if sc.Network != "" {
		if _, ok := NetByName(sc.Network); !ok {
			return fmt.Errorf("sim: scenario %q: unknown network %q", sc.Name, sc.Network)
		}
	}
	if err := sc.Fleet.validate(); err != nil {
		return fmt.Errorf("sim: scenario %q: %w", sc.Name, err)
	}
	if err := sc.Faults.validate(&sc.Fleet, sc.Steps); err != nil {
		return fmt.Errorf("sim: scenario %q: %w", sc.Name, err)
	}
	if err := sc.Recovery.validate(); err != nil {
		return fmt.Errorf("sim: scenario %q: %w", sc.Name, err)
	}
	if sc.Recovery.MinNodes > sc.Fleet.Nodes {
		return fmt.Errorf("sim: scenario %q: min_nodes %d exceeds the %d-node fleet", sc.Name, sc.Recovery.MinNodes, sc.Fleet.Nodes)
	}
	return nil
}

// spec folds the scenario's method fields into a resolved method spec.
func (sc *Scenario) spec() (compress.Spec, error) {
	spec := compress.Spec{Name: sc.Method}
	if sc.Rank > 0 {
		spec = spec.With("rank", strconv.Itoa(sc.Rank))
	}
	if sc.TopKRatio > 0 {
		spec = spec.With("ratio", strconv.FormatFloat(sc.TopKRatio, 'g', -1, 64))
	}
	spec, _, err := resolveMethod(spec)
	return spec, err
}

// defaultNet resolves the scenario-wide interconnect.
func (sc *Scenario) defaultNet() Network {
	name := sc.Network
	if name == "" {
		name = "10gbe"
	}
	net, _ := NetByName(name)
	return net
}

// ParseScenario decodes and validates one scenario document. Unknown fields
// are rejected: a typoed knob silently reverting to its default would
// invalidate the reproducibility story.
func ParseScenario(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("sim: parse scenario: %w", err)
	}
	// Trailing garbage after the document is an error, not silence.
	if dec.More() {
		return nil, fmt.Errorf("sim: parse scenario: trailing data after document")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// LoadScenario reads and parses a scenario file.
func LoadScenario(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	sc, err := ParseScenario(data)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return sc, nil
}
