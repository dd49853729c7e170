package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestQuantiles(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := quantile(xs, 1); got != 10 {
		t.Errorf("quantile(1) = %v, want 10", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of three = %v %v %v, want 1 2 4", q1, q2, q3)
	}
	if got := spreadShare(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spreadShare = %v, want 1", got)
	}
}

// The tail percentile is the highest one with at least ten samples beyond
// it; the sample count decides, and is printed next to it.
func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0.5}, {39, 0.5}, {40, 0.75}, {80, 0.75}, {100, 0.90}, {199, 0.90},
		{200, 0.95}, {512, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailQuantile(tc.n); got != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},  // overlaps span 1: the overlap counts once
		{ID: 3, Parent: 0, Start: 90, End: 120}, // outlives its parent: clipped
		{ID: 4, Parent: 2, Start: 25, End: 35},
		{ID: 5, Parent: -1, Start: 200, End: 260},
	}
	want := []int64{100 - 40 - 10, 20, 30 - 10, 30, 10, 60}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	id := tr.begin(-1, 1, "layer", "name")
	tr.end(id)
	tr.count(id, map[string]int64{"x": 1})
	if self, calls := tr.selfByName(); len(self) != 0 || len(calls) != 0 {
		t.Errorf("nil tracer recorded %v %v", self, calls)
	}
	if err := tr.write(filepath.Join(t.TempDir(), "trace.json")); err != nil {
		t.Errorf("nil tracer write: %v", err)
	}
}

// Every nanosecond between start and stop is charged to exactly one stage,
// and a stage opened inside another takes the time away from it.
func TestStageClockPartition(t *testing.T) {
	clk := &stageClock{}
	fwd, push := clk.read(stForward), clk.read(stPush)
	spin := func() {
		for t0 := time.Now(); time.Since(t0) < 200*time.Microsecond; {
		}
	}
	clk.start()
	spin() // unattributed
	fwd()
	spin() // forward
	push()
	spin() // push, nested in forward
	push()
	fwd()
	total := clk.stop()

	sum := int64(0)
	for _, v := range clk.self {
		sum += v
	}
	if sum != total {
		t.Errorf("self times sum to %d, the clock ran %d", sum, total)
	}
	for _, st := range []int{stUnattributed, stForward, stPush} {
		if clk.self[st] < int64(150*time.Microsecond) || clk.self[st] > total/2 {
			t.Errorf("stage %d self = %d of %d", st, clk.self[st], total)
		}
	}
	if clk.calls[stForward] != 1 || clk.calls[stPush] != 1 || clk.calls[stPop] != 0 {
		t.Errorf("calls = %v", clk.calls)
	}
	if len(clk.stack) != 0 {
		t.Errorf("stack not empty: %v", clk.stack)
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	sz := fullSize()
	if a, b := sweepJobs(7, 3, sz), sweepJobs(7, 3, sz); !reflect.DeepEqual(a, b) {
		t.Error("sweepJobs differs for one seed")
	}
	if a, b := sweepJobs(7, 0, sz), sweepJobs(8, 0, sz); reflect.DeepEqual(a, b) {
		t.Error("sweepJobs is the same for two seeds")
	}
	seen := map[string]bool{}
	for pass := 0; pass < 3; pass++ {
		for _, j := range sweepJobs(7, pass, sz) {
			if seen[j.Key()] {
				t.Errorf("case %s repeats within a run", j.Key())
			}
			seen[j.Key()] = true
		}
	}
	if testing.Short() {
		return
	}
	print := func(seed int64) string {
		stream, err := buildStream(seed, fullSize().StreamCases)
		if err != nil {
			t.Fatal(err)
		}
		reports := 0
		for _, m := range stream {
			if m.rep != nil {
				reports++
			}
		}
		if reports != streamReports || len(stream) != 56+56+streamReports {
			t.Errorf("seed %d: %d messages, %d reports", seed, len(stream), reports)
		}
		fp, err := streamFingerprint(stream)
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	if print(7) != print(7) {
		t.Error("buildStream differs for one seed")
	}
	if print(7) == print(8) {
		t.Error("buildStream is the same for two seeds")
	}
}

func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		bound       float64
		want        string
	}{
		{"within bound", []float64{100, 101, 99}, []float64{104, 103, 105}, true, 0.10, "unchanged"},
		{"regressed", []float64{100, 101, 99}, []float64{120, 121, 119}, true, 0.10, "REGRESSED"},
		{"better, higher is better", []float64{100, 101, 99}, []float64{120, 121, 119}, false, 0.10, "better"},
		{"regressed, higher is better", []float64{100, 101, 99}, []float64{80, 81, 79}, false, 0.10, "REGRESSED"},
		{"too noisy to call", []float64{80, 100, 125, 140}, []float64{90, 110, 130, 150}, true, 0.10, "unresolved"},
		{"noisy but disjoint", []float64{100, 120, 140, 160}, []float64{50, 60, 70, 80}, true, 0.10, "better"},
		{"single runs", []float64{100}, []float64{111}, true, 0.10, "REGRESSED"},
	} {
		if _, got := verdict(tc.a, tc.b, tc.lowerBetter, tc.bound); got != tc.want {
			t.Errorf("%s: verdict = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// BENCHMARK.json and the program must name the same workloads and metrics.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json has %v, the program %v", names, workloadNames)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, the program %v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json has %v, the program %v", spec.PerLayer, perLayer)
	}
}

// buildDaemon compiles vedranalyzerd out of the parent module.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "vedranalyzerd")
	out, err := exec.Command("go", "build", "-o", bin, "vedrfolnir/cmd/vedranalyzerd").CombinedOutput()
	if err != nil {
		t.Fatalf("building vedranalyzerd: %v\n%s", err, out)
	}
	return bin
}

// The harness end to end at about 1/50 size: all five workloads, both
// passes, through the command line the driver uses.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons and simulates; skipped under -short")
	}
	bin := buildDaemon(t)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
	for _, w := range workloadNames {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"-smoke", "-daemon", bin, "--workload", w, "--seed", "3", "--seconds", "0.2"}
			if trace == 1 {
				args = append(args, "--trace", "1")
			}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %d: exit %d\n%s", w, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var raw map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
				t.Fatalf("%s trace %d: last line is not JSON: %v", w, trace, err)
			}
			if len(raw) != 4 {
				t.Errorf("%s trace %d: result has keys %v, want correct/attempted/failed/metrics", w, trace, sortedKeys(raw))
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace %d: metric %s = %+v, want unit %s", w, trace, d.Name, m, d.Unit)
				}
				if trace == 0 && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.Name, m.Value)
				}
			}
			if trace == 1 {
				if _, err := os.Stat(filepath.Join("benchmark", "out", "trace-"+w+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w, err)
				}
			}
		}
	}
	leftovers, err := filepath.Glob(filepath.Join(".bench_build", "tmp", "*"))
	if err != nil || len(leftovers) != 0 {
		t.Errorf("scratch directories left behind: %v %v", leftovers, err)
	}
}
