package sim

import (
	"testing"

	"acpsgd/internal/compress"
	"acpsgd/internal/models"
)

func recoveryBase() (Config, RecoveryConfig) {
	cfg := Config{
		Model:   models.ResNet50(),
		Spec:    compress.MustSpec("acp"),
		Mode:    ModeWFBPTF,
		Workers: 32,
		Net:     Net10GbE(),
		GPU:     DefaultGPU(),
	}
	rc := RecoveryConfig{
		CheckpointEverySteps: 8,
		HeartbeatTimeoutSec:  0.25,
		BackoffSec:           0.025,
		RestoreBandwidth:     10e9, // memory-speed snapshot copy
	}
	return cfg, rc
}

func TestEstimateRecoveryBreakdown(t *testing.T) {
	cfg, rc := recoveryBase()
	r, err := EstimateRecovery(cfg, rc)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"detect":  r.DetectSec,
		"reform":  r.ReformSec,
		"restore": r.RestoreSec,
		"replay":  r.ReplaySec,
		"step":    r.StepSecAfter,
	} {
		if v <= 0 {
			t.Fatalf("phase %s should be positive, got %g", name, v)
		}
	}
	sum := r.DetectSec + r.ReformSec + r.RestoreSec + r.ReplaySec
	if diff := r.TotalSec - sum; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("total %g does not match phase sum %g", r.TotalSec, sum)
	}
	// Detection covers at least the heartbeat window plus the stabilize
	// barrier (two windows in total).
	if r.DetectSec < 2*rc.HeartbeatTimeoutSec {
		t.Fatalf("detect %g below two heartbeat windows", r.DetectSec)
	}
}

// TestEstimateRecoveryCheckpointTradeoff: the analytic model must reproduce
// the knob's defining trade-off — a longer checkpoint interval strictly
// increases the expected replay (and total) cost of a failure.
func TestEstimateRecoveryCheckpointTradeoff(t *testing.T) {
	cfg, rc := recoveryBase()
	short, err := EstimateRecovery(cfg, rc)
	if err != nil {
		t.Fatal(err)
	}
	rc.CheckpointEverySteps = 64
	long, err := EstimateRecovery(cfg, rc)
	if err != nil {
		t.Fatal(err)
	}
	if long.ReplaySec <= short.ReplaySec {
		t.Fatalf("replay cost should grow with the interval: %g vs %g", long.ReplaySec, short.ReplaySec)
	}
	if long.TotalSec <= short.TotalSec {
		t.Fatalf("total cost should grow with the interval: %g vs %g", long.TotalSec, short.TotalSec)
	}
	// Non-replay phases are interval-independent.
	if long.DetectSec != short.DetectSec || long.ReformSec != short.ReformSec || long.RestoreSec != short.RestoreSec {
		t.Fatal("non-replay phases must not depend on the checkpoint interval")
	}
}

// TestEstimateRecoveryReplayUsesShrunkGroup: replay is charged at the
// surviving group's step time, which the estimator also reports.
func TestEstimateRecoveryReplayUsesShrunkGroup(t *testing.T) {
	cfg, rc := recoveryBase()
	r, err := EstimateRecovery(cfg, rc)
	if err != nil {
		t.Fatal(err)
	}
	after := cfg
	after.Workers = cfg.Workers - 1
	want, err := Simulate(after)
	if err != nil {
		t.Fatal(err)
	}
	if r.StepSecAfter != want.TotalSec {
		t.Fatalf("step time after shrink %g, want %g", r.StepSecAfter, want.TotalSec)
	}
	wantReplay := 0.5 * float64(rc.CheckpointEverySteps) * want.TotalSec
	if diff := r.ReplaySec - wantReplay; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("replay %g, want %g", r.ReplaySec, wantReplay)
	}
}

func TestEstimateRecoveryValidation(t *testing.T) {
	cfg, rc := recoveryBase()
	cases := []struct {
		name   string
		mutate func(*Config, *RecoveryConfig)
	}{
		{"zero interval", func(_ *Config, rc *RecoveryConfig) { rc.CheckpointEverySteps = 0 }},
		{"negative timeout", func(_ *Config, rc *RecoveryConfig) { rc.HeartbeatTimeoutSec = -1 }},
		{"single worker", func(c *Config, _ *RecoveryConfig) { c.Workers = 1 }},
		{"bad sim config", func(c *Config, _ *RecoveryConfig) { c.Model = nil }},
	}
	for _, tc := range cases {
		c, r := cfg, rc
		tc.mutate(&c, &r)
		if _, err := EstimateRecovery(c, r); err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
	}
}

// TestEstimateReshape: a planned membership change has no detection window,
// no backoff and no replay — only the re-form and restore terms — whether it
// grows or shrinks the group.
func TestEstimateReshape(t *testing.T) {
	cfg, rc := recoveryBase()
	for _, to := range []int{cfg.Workers - 1, cfg.Workers + 4} {
		r, err := EstimateReshapeTo(cfg, rc, to)
		if err != nil {
			t.Fatal(err)
		}
		if r.DetectSec != 0 || r.ReplaySec != 0 {
			t.Fatalf("reshape to %d charged detect %g / replay %g, want 0", to, r.DetectSec, r.ReplaySec)
		}
		if r.ReformSec != float64(to)*cfg.Net.Alpha {
			t.Fatalf("reshape to %d re-form %g should be ring setup only (no backoff)", to, r.ReformSec)
		}
		if r.RestoreSec <= 0 {
			t.Fatalf("reshape to %d skipped the restore term", to)
		}
		crash, err := EstimateRecoveryTo(cfg, rc, cfg.Workers-1)
		if err != nil {
			t.Fatal(err)
		}
		if r.TotalSec >= crash.TotalSec {
			t.Fatalf("a planned reshape (%gs) should be cheaper than a crash recovery (%gs)", r.TotalSec, crash.TotalSec)
		}
	}
}

// TestEstimateRecoveryGrow: survivors above the starting size is a grow
// transition and must price exactly like the planned reshape it is.
func TestEstimateRecoveryGrow(t *testing.T) {
	cfg, rc := recoveryBase()
	grow, err := EstimateRecoveryTo(cfg, rc, cfg.Workers+2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EstimateReshapeTo(cfg, rc, cfg.Workers+2)
	if err != nil {
		t.Fatal(err)
	}
	if grow != want {
		t.Fatalf("grow pricing %+v differs from reshape pricing %+v", grow, want)
	}
}

// TestEstimateHang: with a watchdog the detection window is the step
// deadline plus one stabilize window; without one it degrades to the crash
// window. Everything else matches a crash recovery.
func TestEstimateHang(t *testing.T) {
	cfg, rc := recoveryBase()
	rc.StepDeadlineSec = 3
	h, err := EstimateHangTo(cfg, rc, cfg.Workers-1)
	if err != nil {
		t.Fatal(err)
	}
	if want := rc.StepDeadlineSec + rc.HeartbeatTimeoutSec; h.DetectSec != want {
		t.Fatalf("hang detect %g, want step deadline + stabilize = %g", h.DetectSec, want)
	}
	crash, err := EstimateRecoveryTo(cfg, rc, cfg.Workers-1)
	if err != nil {
		t.Fatal(err)
	}
	if h.ReformSec != crash.ReformSec || h.RestoreSec != crash.RestoreSec || h.ReplaySec != crash.ReplaySec {
		t.Fatal("hang recovery should differ from a crash only in the detection window")
	}

	rc.StepDeadlineSec = 0
	h0, err := EstimateHangTo(cfg, rc, cfg.Workers-1)
	if err != nil {
		t.Fatal(err)
	}
	if h0.DetectSec != crash.DetectSec {
		t.Fatalf("watchdog-free hang detect %g should fall back to the crash window %g", h0.DetectSec, crash.DetectSec)
	}

	rc.StepDeadlineSec = -1
	if _, err := EstimateHangTo(cfg, rc, cfg.Workers-1); err == nil {
		t.Fatal("negative step deadline should be rejected")
	}
}

// TestEstimateCorrupt: a caught corruption is detected inside the collective,
// so its detection window is just the stabilize barrier — strictly shorter
// than a crash's heartbeat expiry or a hang's watchdog deadline — while the
// re-form, restore and replay terms match a crash recovery exactly.
func TestEstimateCorrupt(t *testing.T) {
	cfg, rc := recoveryBase()
	rc.StepDeadlineSec = 3
	c, err := EstimateCorruptTo(cfg, rc, cfg.Workers-1)
	if err != nil {
		t.Fatal(err)
	}
	if c.DetectSec != rc.HeartbeatTimeoutSec {
		t.Fatalf("corrupt detect %g, want one stabilize window %g", c.DetectSec, rc.HeartbeatTimeoutSec)
	}
	crash, err := EstimateRecoveryTo(cfg, rc, cfg.Workers-1)
	if err != nil {
		t.Fatal(err)
	}
	hang, err := EstimateHangTo(cfg, rc, cfg.Workers-1)
	if err != nil {
		t.Fatal(err)
	}
	if c.DetectSec >= crash.DetectSec || c.DetectSec >= hang.DetectSec {
		t.Fatalf("corrupt detection (%g) should undercut crash (%g) and hang (%g)", c.DetectSec, crash.DetectSec, hang.DetectSec)
	}
	if c.ReformSec != crash.ReformSec || c.RestoreSec != crash.RestoreSec || c.ReplaySec != crash.ReplaySec {
		t.Fatal("corrupt recovery should differ from a crash only in the detection window")
	}
}
