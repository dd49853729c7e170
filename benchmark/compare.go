package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json that -compare reads: the
// direction and regression bound of every end-to-end metric.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// exactMetrics are the traced counts of simulated work. For one seed they
// must repeat exactly on any machine and any commit that only changes how
// fast the simulator runs.
var exactMetrics = []string{
	"eventq.pushes_per_case",
	"fabric.forwards_per_case",
	"telemetry.polls_per_case",
	"monitor.reports_per_case",
	"monitor.overhead_bytes_per_case",
	"collective.sim_time_us_per_case",
	"scenario.tp_share",
}

func loadRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// series collects a metric's values over the records of one workload and
// pass, in file order.
func series(recs []record, workload string, trace int, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload == workload && r.Trace == trace {
			if m, ok := r.Metrics[name]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// printSpread prints, per workload and end-to-end metric, the median and
// quartiles over the repeated sets and the spread as a share of the median.
func printSpread(w io.Writer, recs []record) {
	sayln(w, "spread over the repeated sets (quartiles as Python's statistics.quantiles gives them):")
	for _, wl := range workloadNames {
		for _, d := range endToEnd {
			xs := series(recs, wl, 0, d.Name)
			if len(xs) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(xs)
			say(w, "  %-15s %-12s median %12.4f  q1 %12.4f  q3 %12.4f %-4s spread %5.1f%% (n=%d)\n",
				wl, d.Name, q2, q1, q3, d.Unit, 100*spreadShare(xs), len(xs))
		}
	}
}

// verdict compares a metric's runs on two sides against its bound. worse
// is by how much of a's median b's median is worse (negative: better).
func verdict(a, b []float64, lowerBetter bool, bound float64) (worse float64, word string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, "no baseline"
	}
	worse = (mb - ma) / ma
	if !lowerBetter {
		worse = -worse
	}
	if len(a) >= 2 && len(b) >= 2 {
		spread := spreadShare(a)
		if s := spreadShare(b); s > spread {
			spread = s
		}
		if spread > bound {
			// Too noisy to call, unless the two sides do not even overlap.
			as, bs := sortedCopy(a), sortedCopy(b)
			bBetter := bs[len(bs)-1] < as[0]
			bWorse := bs[0] > as[len(as)-1]
			if !lowerBetter {
				bBetter, bWorse = bWorse, bBetter
			}
			switch {
			case bBetter:
				return worse, "better"
			case bWorse && worse > bound:
				return worse, "REGRESSED"
			}
			return worse, "unresolved"
		}
	}
	switch {
	case worse > bound:
		return worse, "REGRESSED"
	case worse < -bound:
		return worse, "better"
	}
	return worse, "unchanged"
}

// runCompare checks results file b against results file a: every
// end-to-end metric of every workload against its bound in
// BENCHMARK.json, and the exact traced counts for equality. It exits 1 on
// a regression or a changed count; an unresolved metric is reported, not
// failed.
func runCompare(aPath, bPath string, stdout, stderr io.Writer) int {
	spec, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		sayln(stderr, "benchmark: -compare reads the bounds from BENCHMARK.json in the current directory:", err)
		return 1
	}
	var bs benchSpec
	if err := json.Unmarshal(spec, &bs); err != nil {
		sayln(stderr, "benchmark: BENCHMARK.json:", err)
		return 1
	}
	a, err := loadRecords(aPath)
	if err != nil {
		sayln(stderr, "benchmark:", err)
		return 1
	}
	b, err := loadRecords(bPath)
	if err != nil {
		sayln(stderr, "benchmark:", err)
		return 1
	}
	bad := 0
	say(stdout, "%-15s %-12s %14s %14s %8s %6s  %s\n", "workload", "metric", "a median", "b median", "worse", "bound", "verdict")
	for _, wl := range workloadNames {
		for _, m := range bs.EndToEnd {
			xa, xb := series(a, wl, 0, m.Name), series(b, wl, 0, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			worse, word := verdict(xa, xb, m.Better == "lower", m.Bound)
			if word == "REGRESSED" {
				bad++
			}
			say(stdout, "%-15s %-12s %14.4f %14.4f %+7.1f%% %5.0f%%  %s (n=%d,%d)\n",
				wl, m.Name, median(xa), median(xb), 100*worse, 100*m.Bound, word, len(xa), len(xb))
		}
	}
	// Exact counts: compare run by run where both files used the same seed.
	for _, ra := range a {
		if ra.Trace != 1 {
			continue
		}
		for _, rb := range b {
			if rb.Trace != 1 || rb.Workload != ra.Workload || rb.Seed != ra.Seed {
				continue
			}
			for _, name := range exactMetrics {
				va, vb := ra.Metrics[name].Value, rb.Metrics[name].Value
				if va == 0 && vb == 0 {
					continue
				}
				word := "exact"
				if va != vb {
					word = "CHANGED"
					bad++
				}
				say(stdout, "%-15s %-34s %14.4f %14.4f  %s (seed %d)\n", ra.Workload, name, va, vb, word, ra.Seed)
			}
			break
		}
	}
	if bad > 0 {
		say(stderr, "benchmark: %d metric(s) regressed or changed\n", bad)
		return 1
	}
	return 0
}
