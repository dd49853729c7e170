// Command vedrperf runs the repo's named performance workloads, captures
// pprof profiles, and gates CI on the checked-in perf baseline.
//
// Usage:
//
//	vedrperf sweep    [-workers 1,2,4] [-seeds N] [-repeat N] [-out BENCH_sweep.json]
//	                  [-stages] [-cpuprofile f] [-memprofile f]
//	vedrperf analyzerd [-bin vedranalyzerd] [-shards 1,2,4] [-latency-msgs N]
//	                  [-throughput-msgs N] [-iters N] [-out BENCH_analyzerd.json]
//	                  [-before parent.json] [-stages] [-cpuprofile f] [-memprofile f]
//	vedrperf gate     [-baseline perf/baseline.json] [-workers 1] [-seeds N]
//	                  [-update-baseline] [-canary-extra-allocs N]
//
// sweep measures merged-sweep throughput (the Fig 9 contention subset) at
// each worker-pool size and writes the BENCH_sweep.json trajectory rows.
// analyzerd measures the analyzer: fleet ingest throughput and ack latency
// at each shard count (needs -bin, a built cmd/vedranalyzerd), plus
// repeated full-pipeline diagnose latency; it prints the router's own
// link metrics (forward→reply latency, lines per shard write, inflight)
// beside msgs/s, and -before records the parent commit's ingest rows next
// to the fresh ones. gate re-measures the sweep
// workload and fails (exit 1) if allocs/case, ns/case, or cases/s regress
// past the baseline's tolerance; -update-baseline rewrites the baseline
// from the fresh measurement instead. -canary-extra-allocs burns N heap
// allocations per case — CI uses it to prove the gate can fail.
//
// All workloads run the pinned perf.BenchConfig workload so rows are
// comparable across machines and PRs; -stages prints the hot-path stage
// timing breakdown (event queue, fabric forward, telemetry, waitgraph,
// provenance, diagnose) on stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"vedrfolnir/internal/obs"
	"vedrfolnir/internal/perf"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "sweep":
		runSweep(args)
	case "analyzerd":
		runAnalyzerd(args)
	case "gate":
		runGate(args)
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: vedrperf <sweep|analyzerd|gate> [flags]")
	fmt.Fprintln(os.Stderr, "  sweep:     worker-scaling curve -> BENCH_sweep.json")
	fmt.Fprintln(os.Stderr, "  analyzerd: fleet ingest + diagnose latency -> BENCH_analyzerd.json")
	fmt.Fprintln(os.Stderr, "  gate:      compare a fresh sweep against perf/baseline.json")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vedrperf:", err)
	os.Exit(1)
}

// parseCounts parses a comma-separated list of positive ints.
func parseCounts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad count %q in %q", part, s)
		}
		out = append(out, n)
	}
	return out, nil
}

// profiled wraps a workload with optional CPU/heap profile capture.
func profiled(cpuPath, memPath string, fn func() error) error {
	if cpuPath != "" {
		stop, err := perf.StartCPUProfile(cpuPath)
		if err != nil {
			return err
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "vedrperf:", err)
			} else {
				fmt.Fprintln(os.Stderr, "vedrperf: cpu profile written to", cpuPath)
			}
		}()
	}
	if memPath != "" {
		defer func() {
			if err := perf.WriteHeapProfile(memPath); err != nil {
				fmt.Fprintln(os.Stderr, "vedrperf:", err)
			} else {
				fmt.Fprintln(os.Stderr, "vedrperf: heap profile written to", memPath)
			}
		}()
	}
	return fn()
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "vedrperf: wrote", path)
	return nil
}

func printStages(reg *obs.Registry) {
	rows := perf.StageSummary(reg)
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "%-20s %10s %12s %10s %10s %10s\n",
		"stage", "count", "total(ms)", "p50(us)", "p95(us)", "p99(us)")
	for _, r := range rows {
		fmt.Fprintf(os.Stderr, "%-20s %10d %12.1f %10.1f %10.1f %10.1f\n",
			r.Stage, r.Count, r.TotalMs, r.P50Us, r.P95Us, r.P99Us)
	}
}

func runSweep(args []string) {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	workersCSV := fs.String("workers", "", "comma-separated pool sizes (default 1..NumCPU)")
	seeds := fs.Int("seeds", 8, "contention cases per run")
	repeat := fs.Int("repeat", 1, "repetitions of the job set per pool size")
	out := fs.String("out", "BENCH_sweep.json", "output path for the trajectory rows")
	stages := fs.Bool("stages", false, "print the hot-path stage timing breakdown on stderr")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProf := fs.String("memprofile", "", "write a heap profile to this file")
	extra := fs.Int("canary-extra-allocs", 0, "burn N extra heap allocations per case (CI gate canary)")
	_ = fs.Parse(args)

	workers, err := parseCounts(*workersCSV)
	if err != nil {
		fatal(err)
	}
	cfg := perf.BenchConfig()
	reg := obs.NewRegistry()
	var rows []perf.SweepRow
	err = profiled(*cpuProf, *memProf, func() error {
		var err error
		rows, err = perf.RunSweepCurve(cfg, perf.BenchRunOptions(cfg), perf.SweepCurveConfig{
			Workers:            workers,
			Seeds:              *seeds,
			Repeat:             *repeat,
			Registry:           reg,
			Progress:           os.Stderr,
			ExtraAllocsPerCase: *extra,
		})
		return err
	})
	if err != nil {
		fatal(err)
	}
	if *stages {
		printStages(reg)
	}
	if err := writeJSON(*out, rows); err != nil {
		fatal(err)
	}
}

func runAnalyzerd(args []string) {
	fs := flag.NewFlagSet("analyzerd", flag.ExitOnError)
	bin := fs.String("bin", "", "path to a built cmd/vedranalyzerd binary (empty: skip the fleet ingest workload)")
	shardsCSV := fs.String("shards", "1,2,4", "comma-separated fleet widths for the ingest workload")
	latMsgs := fs.Int("latency-msgs", 200, "acked one-at-a-time sends per width (ack-latency sample)")
	thrMsgs := fs.Int("throughput-msgs", 0, "batched sends per width (0 = four stream passes, min 1000)")
	iters := fs.Int("iters", 50, "timed diagnose.Analyze calls")
	seed := fs.Int64("seed", 0, "case seed for both workloads")
	out := fs.String("out", "BENCH_analyzerd.json", "output path")
	before := fs.String("before", "", "a BENCH_analyzerd.json measured on the parent commit; its ingest rows are recorded as ingest_before")
	stages := fs.Bool("stages", false, "print the analyzer stage timing breakdown on stderr")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProf := fs.String("memprofile", "", "write a heap profile to this file")
	_ = fs.Parse(args)

	shards, err := parseCounts(*shardsCSV)
	if err != nil {
		fatal(err)
	}
	cfg := perf.BenchConfig()
	reg := obs.NewRegistry()
	var doc perf.AnalyzerdBench
	if *before != "" {
		var parent perf.AnalyzerdBench
		b, err := os.ReadFile(*before)
		if err == nil {
			err = json.Unmarshal(b, &parent)
		}
		if err != nil {
			fatal(fmt.Errorf("-before: %w", err))
		}
		doc.IngestBefore = parent.Ingest
	}
	err = profiled(*cpuProf, *memProf, func() error {
		if *bin != "" {
			rows, err := perf.RunIngest(cfg, perf.BenchRunOptions(cfg), perf.IngestConfig{
				BinPath:        *bin,
				Shards:         shards,
				Seed:           *seed,
				LatencyMsgs:    *latMsgs,
				ThroughputMsgs: *thrMsgs,
				Registry:       reg,
				Progress:       os.Stderr,
			})
			if err != nil {
				return err
			}
			doc.Ingest = rows
		} else {
			fmt.Fprintln(os.Stderr, "vedrperf: -bin not set; skipping the fleet ingest workload")
		}
		row, err := perf.RunDiagnose(cfg, perf.BenchRunOptions(cfg), perf.DiagnoseConfig{
			Seed:     *seed,
			Iters:    *iters,
			Registry: reg,
		})
		if err != nil {
			return err
		}
		doc.Diagnose = row
		return nil
	})
	if err != nil {
		fatal(err)
	}
	if *stages {
		printStages(reg)
	}
	if err := writeJSON(*out, doc); err != nil {
		fatal(err)
	}
}

func runGate(args []string) {
	fs := flag.NewFlagSet("gate", flag.ExitOnError)
	baselinePath := fs.String("baseline", "perf/baseline.json", "checked-in baseline to compare against")
	workersCSV := fs.String("workers", "1", "comma-separated pool sizes to measure")
	seeds := fs.Int("seeds", 8, "contention cases per run")
	repeat := fs.Int("repeat", 1, "repetitions of the job set per pool size")
	update := fs.Bool("update-baseline", false, "rewrite the baseline from this measurement instead of gating")
	note := fs.String("note", "", "note recorded in the baseline on -update-baseline")
	extra := fs.Int("canary-extra-allocs", 0, "burn N extra heap allocations per case (proves the gate can fail)")
	_ = fs.Parse(args)

	workers, err := parseCounts(*workersCSV)
	if err != nil {
		fatal(err)
	}
	cfg := perf.BenchConfig()
	rows, err := perf.RunSweepCurve(cfg, perf.BenchRunOptions(cfg), perf.SweepCurveConfig{
		Workers:            workers,
		Seeds:              *seeds,
		Repeat:             *repeat,
		Registry:           obs.NewRegistry(),
		Progress:           os.Stderr,
		ExtraAllocsPerCase: *extra,
	})
	if err != nil {
		fatal(err)
	}

	if *update {
		b := &perf.Baseline{Note: *note, Tolerance: perf.Tolerance{}.WithDefaults(), Sweep: rows}
		if err := b.Save(*baselinePath); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "vedrperf: baseline updated:", *baselinePath)
		return
	}

	base, err := perf.LoadBaseline(*baselinePath)
	if err != nil {
		fatal(err)
	}
	violations := base.CompareSweep(rows)
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "vedrperf: perf gate FAILED (%d violation(s) vs %s):\n",
			len(violations), *baselinePath)
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "  ", v)
		}
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "vedrperf: perf gate passed (%d row(s) vs %s)\n", len(rows), *baselinePath)
}
