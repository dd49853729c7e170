package scenario

import (
	"bytes"
	"sync/atomic"
	"testing"

	"vedrfolnir/internal/obs"
	"vedrfolnir/internal/wire"
)

// TestStagesByteIdentity pins the perf-observability contract: running
// with stage timers installed must leave every simulated output —
// records, reports, CFs, diagnosis, and the deterministic obs metrics —
// byte-identical to the uninstrumented run, while the stage registry
// actually collects wall-time observations. Stage wall times live in
// their own registry precisely so they can never leak into the bundle.
func TestStagesByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations are slow")
	}
	cfg := DefaultConfig()
	cfg.Scale = 1.0 / 360
	cfg.StepBytes = int64(1e6)
	cfg.CellSize = 16 << 10
	cfg.Fabric.PFCPauseThreshold = 64 << 10
	cfg.Fabric.PFCResumeThreshold = 32 << 10
	cfg.Fabric.ECNThreshold = 32 << 10
	cs, err := GenerateCase(Contention, 7, cfg)
	if err != nil {
		t.Fatal(err)
	}

	render := func(st *obs.Stages) []byte {
		opts := DefaultRunOptions(cfg)
		opts.Obs = &obs.Scope{Metrics: obs.NewRegistry()}
		opts.Stages = st
		res, err := Run(cs, Vedrfolnir, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		bundle := wire.NewBundle(res.Records, res.Reports, res.CFs)
		bundle.Metrics = opts.Obs.M().Flatten()
		var buf bytes.Buffer
		if err := bundle.Write(&buf); err != nil {
			t.Fatal(err)
		}
		buf.WriteString(res.Diag.Summary())
		return buf.Bytes()
	}

	plain := render(nil)

	// A deterministic strictly-increasing fake clock: the timers observe
	// real nonzero durations without the test reading wall time. Analyze
	// times its waiting-graph half on a goroutine of its own, so the clock
	// is read from two goroutines at once, as NewStages allows.
	var tick atomic.Int64
	reg := obs.NewRegistry()
	st := obs.NewStages(reg, func() int64 { return tick.Add(13) })
	timed := render(st)

	if !bytes.Equal(plain, timed) {
		t.Fatalf("stage-timed run differs from uninstrumented run (%d vs %d bytes)",
			len(plain), len(timed))
	}

	// The timers must have actually fired: every stage wired through
	// scenario.Run sees at least one observation on a contention case.
	flat := reg.Flatten()
	for _, stage := range []string{
		obs.StageEventPush, obs.StageEventPop, obs.StageFabricForward,
		obs.StageTelemetryCollect, obs.StageWaitgraphBuild, obs.StageDiagnose,
	} {
		if flat["vedr_stage_"+stage+"_ns_count"] == 0 {
			t.Errorf("stage %q recorded no observations", stage)
		}
	}
}
