package perf

import (
	"fmt"
	"runtime"

	"vedrfolnir/internal/diagnose"
	"vedrfolnir/internal/obs"
	"vedrfolnir/internal/scenario"
)

// DiagHistogram names the per-Analyze wall-latency histogram RunDiagnose
// records into the registry.
const DiagHistogram = "perf_diagnose_ns"

// DiagnoseConfig parameterizes the analyzer-latency workload.
type DiagnoseConfig struct {
	// Seed picks the contention case whose collected telemetry the
	// analyzer re-analyzes (default 0).
	Seed int64
	// Iters is the number of timed Analyze calls (default 50).
	Iters int
	// Registry, when set, receives the latency histogram and the
	// analyzer's stage histograms.
	Registry *obs.Registry
}

// RunDiagnose measures the full §III-D pipeline's latency: it runs one
// contention case to collect a realistic input (step records, telemetry
// reports, collective-flow census), then repeatedly calls
// diagnose.Analyze over that fixed input the way the daemon does (per-step
// provenance on, the step index derived from the records), reporting
// wall-latency percentiles and the allocation footprint per call.
func RunDiagnose(cfg scenario.Config, opts scenario.RunOptions, dc DiagnoseConfig) (*DiagnoseRow, error) {
	iters := dc.Iters
	if iters <= 0 {
		iters = 50
	}
	cs, err := scenario.GenerateCase(scenario.Contention, dc.Seed, cfg)
	if err != nil {
		return nil, fmt.Errorf("perf: %w", err)
	}
	res, err := scenario.Run(cs, scenario.Vedrfolnir, cfg, opts)
	if err != nil {
		return nil, fmt.Errorf("perf: %w", err)
	}

	now := NanoNow()
	var stages *obs.Stages
	if dc.Registry != nil {
		stages = obs.NewStages(dc.Registry, now)
	}
	timer := obs.NewTimer(
		dc.Registry.Histogram(DiagHistogram, "wall time of one Analyze call (ns)", obs.WallBuckets()), now)
	in := diagnose.Input{
		Records: res.Records,
		Reports: res.Reports,
		CFs:     res.CFs,
		StepOf:  diagnose.StepOfRecords(res.Records),
		Stages:  stages,
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sw := NanoNow()
	for i := 0; i < iters; i++ {
		t0 := timer.Begin()
		d := diagnose.Analyze(in)
		timer.End(t0)
		if len(d.Findings) == 0 {
			return nil, fmt.Errorf("perf: diagnosis lost its findings on iter %d", i)
		}
	}
	elapsed := sw()
	runtime.ReadMemStats(&after)

	row := &DiagnoseRow{
		Records:       len(res.Records),
		Reports:       len(res.Reports),
		Iters:         iters,
		NsPerDiag:     elapsed / int64(iters),
		AllocsPerDiag: int64(after.Mallocs-before.Mallocs) / int64(iters),
		BytesPerDiag:  int64(after.TotalAlloc-before.TotalAlloc) / int64(iters),
	}
	if s, ok := findSample(dc.Registry, DiagHistogram); ok && s.Count > 0 {
		row.P50Ms = s.Quantile(0.50) / 1e6
		row.P95Ms = s.Quantile(0.95) / 1e6
		row.P99Ms = s.Quantile(0.99) / 1e6
	}
	return row, nil
}
