package sweep

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"vedrfolnir/internal/scenario"
)

// allocCeilings hold each of the four §IV-A kinds that the benchmark's
// sweep-mixed workload runs to 1 % over the heap allocations a case cost
// when the ceilings were last set: contention 15 140–15 142, incast
// 12 246–12 248, pfc-storm 8 908–8 909 and pfc-backpressure 11 386–11 387
// a case. Allocation counts are deterministic up to map iteration and
// goroutine scheduling, so the band is tight: a hot-path allocation that
// creeps back in fails here, on any machine, where wall time would only
// read as noise, and a path only incast or the PFC cases take is held as
// tightly as contention's. Lower a ceiling when a change cuts allocations.
var allocCeilings = []struct {
	kind    scenario.AnomalyKind
	ceiling int64
}{
	{scenario.Contention, 15294},
	{scenario.Incast, 12371},
	{scenario.PFCStorm, 8999},
	{scenario.PFCBackpressure, 11501},
}

// checkAllocsPerCase is the gate: nil at or under the ceiling.
func checkAllocsPerCase(got, ceiling int64) error {
	if got > ceiling {
		return fmt.Errorf("%d allocs/case exceeds the ceiling of %d", got, ceiling)
	}
	return nil
}

// raceEnabled reports whether this test binary was built with -race, under
// which the same run allocates about 4 % more. (A //go:build race file
// pair would say it more directly, but vedrlint type-checks every file
// whatever its tags and would see the constant declared twice.)
func raceEnabled() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestSweepAllocsPerCase holds the case kernel to its allocation budget,
// one subtest per kind in allocCeilings, on a fixed workload: seeds 0-7,
// Vedrfolnir, at most 5 detections a step, through one worker, at the
// pinned 1/360 configuration — fastConfig's cell size and thresholds with
// the step at its scaled 1 MB, the values benchConfig in the root
// bench_test.go and benchmark/config.go also pin. The canary proves the
// check can fail: 1 600 extra allocations a contention case, a 10 %
// regression, must trip the same function.
func TestSweepAllocsPerCase(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's own allocations break the ceiling")
	}
	cfg := fastConfig()
	cfg.StepBytes = cfg.ScaledBytes(360e6)
	opts := scenario.DefaultRunOptions(cfg)
	opts.Monitor.MaxDetectPerStep = 5
	exec := Cases(cfg, opts)

	measure := func(t *testing.T, kind scenario.AnomalyKind, exec Exec) int64 {
		t.Helper()
		jobs := make([]Job, 8)
		for i := range jobs {
			jobs[i] = Job{Kind: kind, Seed: int64(i), System: scenario.Vedrfolnir}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sum, err := Run(jobs, exec, Options{Workers: 1})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if len(sum.Failed) > 0 || len(sum.Results) != len(jobs) {
			t.Fatalf("%d of %d cases finished, failed: %v", len(sum.Results), len(jobs), sum.Failed)
		}
		return int64(after.Mallocs-before.Mallocs) / int64(len(jobs))
	}

	for _, c := range allocCeilings {
		t.Run(c.kind.String(), func(t *testing.T) {
			got := measure(t, c.kind, exec)
			t.Logf("%d allocs/case (ceiling %d)", got, c.ceiling)
			if err := checkAllocsPerCase(got, c.ceiling); err != nil {
				t.Error(err)
			}
		})
	}

	t.Run("canary", func(t *testing.T) {
		ceiling := allocCeilings[0].ceiling
		var sink [][]byte // keeps the burnt allocations reachable, so none is optimised away
		burning := func(j Job) (Result, error) {
			sink = sink[:0]
			for i := 0; i < 1600; i++ {
				sink = append(sink, make([]byte, 16))
			}
			return exec(j)
		}
		got := measure(t, scenario.Contention, burning)
		t.Logf("%d allocs/case with the burn", got)
		if err := checkAllocsPerCase(got, ceiling); err == nil {
			t.Errorf("%d allocs/case with 1600 burnt per case passed the ceiling of %d: the check gates nothing",
				got, ceiling)
		}
	})
}
