package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vedrfolnir/internal/scenario"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/wire"
)

// fastConfig is the reduced-scale configuration for unit tests (mirrors
// the scenario/experiments test config: 1 MB steps, proportional fabric
// thresholds).
func fastConfig() scenario.Config {
	cfg := scenario.DefaultConfig()
	cfg.Scale = 1.0 / 360
	cfg.StepBytes = int64(1e6)
	cfg.CellSize = 16 << 10
	cfg.Fabric.PFCPauseThreshold = 64 << 10
	cfg.Fabric.PFCResumeThreshold = 32 << 10
	cfg.Fabric.ECNThreshold = 32 << 10
	return cfg
}

// testJobs is a small Fig 9-style grid: two kinds, one system, a few
// seeds each — real simulations, cheap enough for -race CI.
func testJobs() []Job { return gridJobs(3) }

// gridJobs is testJobs with the given number of seeds per kind.
func gridJobs(seeds int64) []Job {
	var jobs []Job
	for _, kind := range []scenario.AnomalyKind{scenario.Contention, scenario.Incast} {
		for seed := int64(0); seed < seeds; seed++ {
			jobs = append(jobs, Job{Kind: kind, Seed: seed, System: scenario.Vedrfolnir})
		}
	}
	return jobs
}

// marshalResults renders merged results to canonical journal bytes, the
// byte-identity the determinism tests compare.
func marshalResults(t *testing.T, rs []Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range rs {
		if err := enc.Encode(wireRecord(r)); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestJobKeyStable(t *testing.T) {
	j := Job{Kind: scenario.Contention, Seed: 7, System: scenario.HawkeyeMinR,
		Params: Params{RTTFactor: 1.2, MaxDetectPerStep: 5, FixedRTTThreshold: 300, Unrestricted: true}}
	want := "flow-contention/hawkeye-minr/s7/rtt=1.2/det=5/fix=300/unrestricted"
	if got := j.Key(); got != want {
		t.Fatalf("Key() = %q, want %q", got, want)
	}
	// The default operating point keys without parameter suffixes.
	plain := Job{Kind: scenario.Incast, Seed: 0, System: scenario.Vedrfolnir}
	if got, want := plain.Key(), "incast/vedrfolnir/s0"; got != want {
		t.Fatalf("Key() = %q, want %q", got, want)
	}
}

// TestSweepDeterminism is the engine's core contract: the same job list
// merges to byte-identical output at workers=1 and workers=8. Run under
// -race in CI.
func TestSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations are slow")
	}
	cfg := fastConfig()
	exec := Cases(cfg, scenario.DefaultRunOptions(cfg))
	jobs := testJobs()

	seq, err := Run(jobs, exec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(jobs, exec, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, sum := range []*Summary{seq, par} {
		if len(sum.Failed) > 0 {
			t.Fatalf("unexpected failures: %v", sum.Failed)
		}
		if len(sum.Results) != len(jobs) {
			t.Fatalf("results = %d, want %d", len(sum.Results), len(jobs))
		}
	}
	a, b := marshalResults(t, seq.Results), marshalResults(t, par.Results)
	if !bytes.Equal(a, b) {
		t.Fatalf("workers=1 and workers=8 merged output differ:\n%s\nvs\n%s", a, b)
	}
	// Sanity: the sweep actually diagnosed something.
	detected := 0
	for _, r := range seq.Results {
		detected += r.Detected
	}
	if detected == 0 {
		t.Fatal("no case detected any culprit; sweep ran degenerate sims")
	}
}

// TestSweepResume kills a journaled sweep after N jobs and resumes it; the
// final compacted journal must be byte-identical to an uninterrupted
// run's. Run under -race in CI.
func TestSweepResume(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations are slow")
	}
	cfg := fastConfig()
	exec := Cases(cfg, scenario.DefaultRunOptions(cfg))
	// Twelve jobs: when the merge loop sees its second result, the two
	// workers of the interrupted run can have been handed at most six (two
	// merged, two in the result buffer, one in each worker's hands) and the
	// dispatcher one more before it notices the stop, so some are always
	// left to resume however far a loaded machine lets the merge fall behind.
	jobs := gridJobs(6)
	spec := wire.SweepSpec{Name: "test", ScaleDen: 360}
	dir := t.TempDir()

	// Reference: one uninterrupted journaled run.
	full := filepath.Join(dir, "full.jsonl")
	j1, err := OpenJournal(full, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(jobs, exec, Options{Workers: 4, Journal: j1}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(want, []byte("\n")); n != len(jobs)+1 {
		t.Fatalf("compacted journal has %d lines, want %d (header + jobs)", n, len(jobs)+1)
	}

	// Interrupted run: stop after 2 finished jobs.
	part := filepath.Join(dir, "part.jsonl")
	j2, err := OpenJournal(part, spec)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Run(jobs, exec, Options{Workers: 2, Journal: j2, StopAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if !sum.Interrupted || len(sum.Pending) == 0 {
		t.Fatalf("StopAfter=2 did not interrupt: interrupted=%v pending=%d",
			sum.Interrupted, len(sum.Pending))
	}

	// Resume: skipped jobs come from the journal, the rest run now, and
	// the compacted result matches the uninterrupted journal exactly.
	j3, err := OpenJournal(part, spec)
	if err != nil {
		t.Fatal(err)
	}
	sum, err = Run(jobs, exec, Options{Workers: 4, Journal: j3})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Interrupted {
		t.Fatal("resume did not complete")
	}
	if sum.Skipped < 2 {
		t.Fatalf("resume skipped %d jobs, want >= 2", sum.Skipped)
	}
	got, err := os.ReadFile(part)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed journal differs from uninterrupted journal:\n%s\nvs\n%s", got, want)
	}
}

// TestSweepErrorCapture: one failing job degrades the sweep instead of
// aborting it, and a resume re-runs the failed job so transient failures
// heal.
func TestSweepErrorCapture(t *testing.T) {
	jobs := []Job{
		{Kind: scenario.Contention, Seed: 0, System: scenario.Vedrfolnir},
		{Kind: scenario.Contention, Seed: 1, System: scenario.Vedrfolnir},
		{Kind: scenario.Contention, Seed: 2, System: scenario.Vedrfolnir},
	}
	attempt := map[int64]int{}
	// Seed 1 fails on its first attempt only (transient); the exec runs
	// on one worker so the attempt map needs no locking.
	exec := func(j Job) (Result, error) {
		attempt[j.Seed]++
		if j.Seed == 1 && attempt[j.Seed] == 1 {
			return Result{}, fmt.Errorf("transient: no route to host")
		}
		return Result{Outcome: scenario.Outcome(0), Completed: true, TelemetryBytes: 10 * j.Seed}, nil
	}
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	spec := wire.SweepSpec{Name: "test", ScaleDen: 360}
	j1, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Run(jobs, exec, Options{Workers: 1, Journal: j1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Failed) != 1 || sum.Failed[0] != jobs[1].Key() {
		t.Fatalf("Failed = %v, want [%s]", sum.Failed, jobs[1].Key())
	}
	if sum.Results[0].Err != "" || sum.Results[2].Err != "" {
		t.Fatal("healthy jobs contaminated by the failing one")
	}
	if !strings.Contains(sum.Results[1].Err, "no route") {
		t.Fatalf("captured error = %q", sum.Results[1].Err)
	}

	// Resume: the two successes are skipped, the failure re-runs and now
	// succeeds; the journal ends fully healthy.
	j2, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	sum, err = Run(jobs, exec, Options{Workers: 1, Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Skipped != 2 {
		t.Fatalf("resume skipped %d, want 2 (failed job must re-run)", sum.Skipped)
	}
	if len(sum.Failed) != 0 {
		t.Fatalf("transient failure did not heal: %v", sum.Failed)
	}
	if got := attempt[1]; got != 2 {
		t.Fatalf("failing job ran %d times, want 2", got)
	}
	_, results, _, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("compacted journal has %d records, want %d", len(results), len(jobs))
	}
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("compacted journal still records failure: %+v", r)
		}
	}
}

// TestSweepPanicCapture: a panic deep inside one case is captured per-job.
func TestSweepPanicCapture(t *testing.T) {
	jobs := []Job{
		{Kind: scenario.Contention, Seed: 0, System: scenario.Vedrfolnir},
		{Kind: scenario.Contention, Seed: 1, System: scenario.Vedrfolnir},
	}
	exec := func(j Job) (Result, error) {
		if j.Seed == 1 {
			var m map[string]int
			m["boom"] = 1 // deliberate nil-map write
		}
		return Result{Completed: true}, nil
	}
	sum, err := Run(jobs, exec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Failed) != 1 {
		t.Fatalf("Failed = %v", sum.Failed)
	}
	if !strings.Contains(sum.Results[1].Err, "panic") {
		t.Fatalf("panic not captured: %q", sum.Results[1].Err)
	}
}

func TestSweepDuplicateKeysRejected(t *testing.T) {
	jobs := []Job{
		{Kind: scenario.Contention, Seed: 0, System: scenario.Vedrfolnir},
		{Kind: scenario.Contention, Seed: 0, System: scenario.Vedrfolnir},
	}
	if _, err := Run(jobs, func(Job) (Result, error) { return Result{}, nil }, Options{}); err == nil {
		t.Fatal("duplicate job keys accepted")
	}
}

func TestJournalSpecMismatchRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenJournal(path, wire.SweepSpec{Name: "fig9", ScaleDen: 90})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := OpenJournal(path, wire.SweepSpec{Name: "fig12", ScaleDen: 90}); err == nil {
		t.Fatal("journal accepted a different sweep spec")
	}
	if _, err := OpenJournal(path, wire.SweepSpec{Name: "fig9", ScaleDen: 360}); err == nil {
		t.Fatal("journal accepted a different scale")
	}
}

// TestResultJournalRoundTrip: every Result field the harnesses consume
// survives the journal losslessly — the precondition for resume producing
// byte-identical figures.
func TestResultJournalRoundTrip(t *testing.T) {
	in := Result{
		Job: Job{Kind: scenario.PFCStorm, Seed: 12, System: scenario.HawkeyeMaxR,
			Params: Params{RTTFactor: 2.4, MaxDetectPerStep: 3}},
		Err:            "",
		Outcome:        scenario.Outcome(1),
		Completed:      true,
		TelemetryBytes: 123456,
		BandwidthBytes: 654321,
		CollectiveTime: 987654321,
		Detected:       4,
		Samples:        []simtime.Duration{3, 1, 4, 1, 5},
	}
	in.Key = in.Job.Key()
	b, err := json.Marshal(wireRecord(in))
	if err != nil {
		t.Fatal(err)
	}
	var rec wire.SweepRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatal(err)
	}
	out := resultFromWire(rec)
	b2, err := json.Marshal(wireRecord(out))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("journal round trip not lossless:\n%s\nvs\n%s", b, b2)
	}
}

// fakeClock is a deterministic stopwatch for progress tests.
type fakeClock struct{ now simtime.Duration }

func (c *fakeClock) Start()                    { c.now = 0 }
func (c *fakeClock) Elapsed() simtime.Duration { c.now += 250 * 1e6; return c.now }

func TestSweepProgressReporting(t *testing.T) {
	jobs := make([]Job, 5)
	for i := range jobs {
		jobs[i] = Job{Kind: scenario.Contention, Seed: int64(i), System: scenario.Vedrfolnir}
	}
	var buf bytes.Buffer
	_, err := Run(jobs, func(Job) (Result, error) { return Result{Completed: true}, nil },
		Options{Workers: 2, Progress: &buf, ProgressEvery: 1, Clock: &fakeClock{}})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "5/5 cases") {
		t.Fatalf("no completion line in progress output:\n%s", out)
	}
	if !strings.Contains(out, "cases/s") {
		t.Fatalf("no throughput in progress output:\n%s", out)
	}
}
