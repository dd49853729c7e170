package sweep

import (
	"bytes"
	"testing"

	"vedrfolnir/internal/obs"
	"vedrfolnir/internal/scenario"
	"vedrfolnir/internal/simtime"
)

// fakeStopwatch keeps the sweep metrics wall-clock-free in tests.
type fakeStopwatch struct{ elapsed simtime.Duration }

func (f fakeStopwatch) Start()                    {}
func (f fakeStopwatch) Elapsed() simtime.Duration { return f.elapsed }

// TestSweepTraceWorkerInvariant pins the trace contract for parallel
// sweeps: the rendered trace is laid out in job order on an accumulated
// sim-time axis, so it is byte-identical at any -workers count even
// though cases complete in scheduler order.
func TestSweepTraceWorkerInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations are slow")
	}
	cfg := fastConfig()
	exec := Cases(cfg, scenario.DefaultRunOptions(cfg))
	jobs := testJobs()

	render := func(workers int) ([]byte, map[string]int64) {
		scope := &obs.Scope{Trace: obs.NewTracer(), Metrics: obs.NewRegistry()}
		if _, err := Run(jobs, exec, Options{Workers: workers, Obs: scope, Clock: fakeStopwatch{}}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := scope.Trace.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), scope.Metrics.Flatten()
	}

	trace1, m1 := render(1)
	trace8, m8 := render(8)
	if !bytes.Equal(trace1, trace8) {
		t.Error("sweep trace differs between workers=1 and workers=8")
	}
	if m1["vedr_sweep_cases_done_total"] != int64(len(jobs)) {
		t.Errorf("cases done = %d, want %d", m1["vedr_sweep_cases_done_total"], len(jobs))
	}
	for _, k := range []string{"vedr_sweep_cases", "vedr_sweep_cases_done_total",
		"vedr_sweep_cases_failed_total", "vedr_sweep_case_sim_ns_count"} {
		if m1[k] != m8[k] {
			t.Errorf("metric %s differs across worker counts: %d vs %d", k, m1[k], m8[k])
		}
	}
}

// TestSweepMetricsFailures checks the failure counter and the interrupted
// / pending gauges land in the registry (the source for vedrbench's per-sweep
// summary line).
func TestSweepMetricsFailures(t *testing.T) {
	jobs := []Job{
		{Kind: scenario.Contention, Seed: 0, System: scenario.Vedrfolnir},
		{Kind: scenario.Contention, Seed: 1, System: scenario.Vedrfolnir},
	}
	exec := func(job Job) (Result, error) {
		r := Result{Key: job.Key()}
		if job.Seed == 1 {
			r.Err = "boom"
		} else {
			r.CollectiveTime = 1000
		}
		return r, nil
	}
	scope := &obs.Scope{Metrics: obs.NewRegistry()}
	if _, err := Run(jobs, exec, Options{Workers: 2, Obs: scope, Clock: fakeStopwatch{elapsed: 5_000_000}}); err != nil {
		t.Fatal(err)
	}
	m := scope.Metrics.Flatten()
	checks := map[string]int64{
		"vedr_sweep_cases":              2,
		"vedr_sweep_cases_done_total":   2,
		"vedr_sweep_cases_failed_total": 1,
		"vedr_sweep_cases_pending":      0,
		"vedr_sweep_interrupted":        0,
		"vedr_sweep_wall_ms":            5,
		"vedr_sweep_case_sim_ns_count":  1,
	}
	for k, want := range checks {
		if m[k] != want {
			t.Errorf("%s = %d, want %d (all: %v)", k, m[k], want, m)
		}
	}
}
