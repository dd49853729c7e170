// Command vedrbench regenerates every table and figure of the paper's
// evaluation section (§IV) and prints the same rows/series the paper plots.
//
// Usage:
//
//	vedrbench [-fig 9|10|11|12|13|14|ext|chaos|all] [-paper] [-scale N]
//	          [-workers N] [-journal base] [-cpuprofile f] [-memprofile f]
//
// By default a reduced case census runs in seconds; -paper runs the full
// §IV-A census (60/60/40/60 cases per scenario). Case grids run on the
// internal/sweep worker pool (-workers, default GOMAXPROCS); -journal
// checkpoints each grid to base.<fig>.jsonl so an interrupted run resumes
// where it stopped (see cmd/vedrsweep for journal tooling). A failing case
// no longer aborts the run: completed rows still print, the failed case
// keys are reported at the end, and the exit status is non-zero.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"vedrfolnir/internal/experiments"
	"vedrfolnir/internal/obs"
	"vedrfolnir/internal/scenario"
	"vedrfolnir/internal/sweep"
	"vedrfolnir/internal/wire"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 9, 10, 11, 12, 13, 14, ext, chaos or all")
	paper := flag.Bool("paper", false, "run the full paper case census (60/60/40/60)")
	scaleDen := flag.Float64("scale", 90, "workload scale denominator: sizes and times are 1/N of the paper's")
	workers := flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	journal := flag.String("journal", "", "checkpoint base path: each case grid journals to base.<fig>.jsonl")
	traceDir := flag.String("trace-dir", "", "write one sim-time Chrome trace per sweep/case study into this directory")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProf := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	flush, err := obs.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	flushProfiles = func() {
		if err := flush(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
	defer flushProfiles()

	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fatal(err)
		}
	}

	cfg := scenario.ConfigForScale(*scaleDen)

	counts := experiments.SmallCaseCounts()
	if *paper {
		counts = experiments.PaperCaseCounts()
	}

	// One failing case degrades its figure instead of aborting the run;
	// every captured failure is reported (and the exit status set) at the
	// end. OnResult is invoked from the sweep's single merging goroutine,
	// so plain append is safe.
	var failed []string
	var journals []*sweep.Journal
	// Each sweep (and the Fig 14 case study) gets its own trace scope; the
	// files are written together at the end so a mid-run failure still
	// leaves the completed traces on disk in one place.
	type namedScope struct {
		name  string
		scope *obs.Scope
	}
	var scopes []namedScope
	newScope := func(name string) *obs.Scope {
		scope := &obs.Scope{Trace: obs.NewTracer(), Metrics: obs.NewRegistry()}
		scopes = append(scopes, namedScope{name, scope})
		return scope
	}
	sweepOpts := func(name string) sweep.Options {
		sw := sweep.Options{
			Workers:  *workers,
			Progress: os.Stderr,
			OnResult: func(r sweep.Result) {
				if r.Err != "" {
					failed = append(failed, fmt.Sprintf("%s: %s", r.Key, r.Err))
				}
			},
		}
		if *traceDir != "" {
			sw.Obs = newScope(name)
		}
		if *journal != "" {
			spec := wire.SweepSpec{Name: name, Paper: *paper, ScaleDen: *scaleDen}
			j, err := sweep.OpenJournal(fmt.Sprintf("%s.%s.jsonl", *journal, name), spec)
			if err != nil {
				fatal(err)
			}
			journals = append(journals, j)
			sw.Journal = j
		}
		return sw
	}

	run := func(name string, fn func()) {
		start := time.Now()
		fmt.Printf("==== %s ====\n", name)
		fn()
		fmt.Printf("(%s in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	want := func(f string) bool { return *fig == "all" || *fig == f }

	var cells []experiments.Cell
	if want("9") || want("10") {
		// One sweep feeds both figures.
		opts := scenario.DefaultRunOptions(cfg)
		opts.Monitor.MaxDetectPerStep = 5 // Fig 9 uses "optimal parameters"
		var err error
		cells, err = experiments.Sweep(cfg, counts, experiments.Systems, opts, sweepOpts("fig9"))
		if err != nil {
			fatal(err)
		}
	}
	if want("9") {
		run("Fig 9: precision & recall vs baselines", func() { printFig9(cells) })
	}
	if want("10") {
		run("Fig 10: processing & bandwidth overhead", func() { printFig10(cells) })
	}
	if want("11") {
		run("Fig 11: host monitor overhead (testbed substitute)", printFig11)
	}
	if want("12") {
		run("Fig 12: precision & recall over RTT thresholds × detection counts", func() {
			rows, err := experiments.Fig12(cfg, counts, sweepOpts("fig12"))
			if err != nil {
				fatal(err)
			}
			printFig12(rows)
		})
	}
	if want("13") {
		run("Fig 13: ablations of the step-aware mechanism", func() {
			printFig13(cfg, counts[scenario.Contention], sweepOpts)
		})
	}
	if want("14") {
		run("Fig 14: case study", func() {
			var scope *obs.Scope
			if *traceDir != "" {
				scope = newScope("fig14")
			}
			printFig14(cfg, scope)
		})
	}
	if want("ext") {
		run("Extensions: remaining §II-B anomalies + slowdown distributions", func() {
			printExtensions(cfg, counts, sweepOpts)
		})
	}
	if want("chaos") {
		run("Chaos: precision/recall/confidence vs control-packet loss", func() {
			rows, err := experiments.Chaos(cfg, counts, sweepOpts("chaos"))
			if err != nil {
				fatal(err)
			}
			printChaos(rows)
		})
	}
	known := false
	for _, f := range []string{"9", "10", "11", "12", "13", "14", "ext", "chaos"} {
		if want(f) {
			known = true
		}
	}
	if !known {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		flushProfiles()
		os.Exit(2)
	}
	for _, j := range journals {
		if err := j.Close(); err != nil {
			fatal(err)
		}
	}
	for _, ns := range scopes {
		path := filepath.Join(*traceDir, ns.name+".trace.json")
		if err := ns.scope.Trace.WriteFile(path); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (%d events)\n", path, ns.scope.Trace.Len())
	}
	if len(failed) > 0 {
		sort.Strings(failed)
		fmt.Fprintf(os.Stderr, "%d case(s) failed (rows above aggregate the remainder):\n", len(failed))
		for _, f := range failed {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		flushProfiles()
		os.Exit(1)
	}
}

// flushProfiles finishes the -cpuprofile/-memprofile files. os.Exit skips
// defers, so every exit path calls it; main points it at the flush once
// the flags are parsed.
var flushProfiles = func() {}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	flushProfiles()
	os.Exit(1)
}

func printExtensions(cfg scenario.Config, counts map[scenario.AnomalyKind]int,
	sweepOpts func(string) sweep.Options) {
	cases := counts[scenario.Contention]
	if cases == 0 {
		cases = 6
	}
	fmt.Println("-- extension anomalies (vedrfolnir) --")
	fmt.Printf("%-18s %9s %9s %16s\n", "scenario", "precision", "recall", "telemetry(B)")
	ext, err := experiments.ExtensionSweep(cfg, cases, sweepOpts("ext"))
	if err != nil {
		fatal(err)
	}
	for _, c := range ext {
		fmt.Printf("%-18s %9.2f %9.2f %16d\n", c.Kind, c.Precision(), c.Recall(), c.TelemetryBytes)
	}
	fmt.Println("-- per-step slowdown distributions --")
	rows, err := experiments.Slowdowns(cfg, counts, sweepOpts("slowdowns"))
	if err != nil {
		fatal(err)
	}
	for _, row := range rows {
		fmt.Printf("%-18s %s\n", row.Kind, row.Summary)
	}
}

func printFig9(cells []experiments.Cell) {
	fmt.Printf("%-18s %-14s %9s %9s %6s\n", "scenario", "system", "precision", "recall", "cases")
	for _, c := range cells {
		fmt.Printf("%-18s %-14s %9.2f %9.2f %6d%s\n",
			c.Kind, c.System, c.Precision(), c.Recall(), c.Cases, failNote(c.Failed))
	}
}

func printFig10(cells []experiments.Cell) {
	fmt.Printf("%-18s %-14s %16s %16s\n", "scenario", "system", "telemetry(B)", "bandwidth(B)")
	for _, c := range cells {
		fmt.Printf("%-18s %-14s %16d %16d%s\n", c.Kind, c.System, c.TelemetryBytes, c.BandwidthBytes, failNote(c.Failed))
	}
}

// failNote annotates a row whose cell lost cases to captured failures.
func failNote(failed int) string {
	if failed == 0 {
		return ""
	}
	return fmt.Sprintf("  (!%d failed)", failed)
}

func printFig11() {
	rows, err := experiments.Fig11(3)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-18s %12s %14s %12s\n", "run", "cpu", "alloc(B)", "sim-time")
	for _, r := range rows {
		fmt.Printf("%-18s %12v %14d %12v\n", r.Label, r.CPU.Round(time.Microsecond), r.AllocBytes, r.SimTime)
	}
}

func printFig12(rows []experiments.Fig12Row) {
	fmt.Printf("%-18s %6s %7s %9s %9s\n", "scenario", "rtt%", "detect", "precision", "recall")
	for _, r := range rows {
		fmt.Printf("%-18s %5.0f%% %7d %9.2f %9.2f%s\n",
			r.Kind, r.RTTFactor*100, r.DetectCount, r.Metrics.Precision(), r.Metrics.Recall(), failNote(r.Failed))
	}
}

func printFig13(cfg scenario.Config, cases int, sweepOpts func(string) sweep.Options) {
	if cases == 0 {
		cases = 6
	}
	ths := experiments.Fig13aThresholds(cfg)
	fmt.Println("-- Fig 13a: fixed vs step-grained RTT thresholds (contention, ≤3/step) --")
	fmt.Printf("%-22s %9s %16s\n", "threshold", "precision", "telemetry(B)")
	rows13a, err := experiments.Fig13a(cfg, cases, ths, sweepOpts("fig13a"))
	if err != nil {
		fatal(err)
	}
	for _, row := range rows13a {
		label := "step-grained (ours)"
		if row.Threshold > 0 {
			label = row.Threshold.String()
		}
		fmt.Printf("%-22s %9.2f %16d%s\n", label, row.Metrics.Precision(), row.TelemetryBytes, failNote(row.Failed))
	}
	fmt.Println("-- Fig 13b: detection-count allocation vs unrestricted triggering --")
	fmt.Printf("%-22s %9s %16s\n", "setting", "precision", "telemetry(B)")
	rows13b, err := experiments.Fig13b(cfg, cases, []int{1, 3, 5}, sweepOpts("fig13b"))
	if err != nil {
		fatal(err)
	}
	for _, row := range rows13b {
		fmt.Printf("%-22s %9.2f %16d%s\n", row.Label, row.Metrics.Precision(), row.TelemetryBytes, failNote(row.Failed))
	}
}

func printChaos(rows []experiments.ChaosRow) {
	fmt.Printf("%-18s %7s %9s %9s %11s %6s\n", "scenario", "loss%", "precision", "recall", "confidence", "cases")
	for _, r := range rows {
		note := failNote(r.Failed)
		if r.Incomplete > 0 {
			note += fmt.Sprintf("  (%d incomplete)", r.Incomplete)
		}
		fmt.Printf("%-18s %6.1f%% %9.2f %9.2f %11.2f %6d%s\n",
			r.Kind, r.LossRate*100, r.Metrics.Precision(), r.Metrics.Recall(),
			r.MeanConfidence, r.Cases, note)
	}
}

func printFig14(cfg scenario.Config, scope *obs.Scope) {
	study, err := experiments.Fig14Obs(cfg, scope)
	if err != nil {
		fatal(err)
	}
	fmt.Println("critical path:", study.CriticalStr)
	fmt.Printf("BF1 (%v) overall score: %.0f\n", study.BF1, study.BF1Score)
	fmt.Printf("BF2 (%v) overall score: %.0f\n", study.BF2, study.BF2Score)
	fmt.Println(strings.TrimSpace(study.Diag.Summary()))
	fmt.Println("\n(waiting graph and provenance DOT available via cmd/vedrgraph)")
}
