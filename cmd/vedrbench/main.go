// Command vedrbench regenerates every table and figure of the paper's
// evaluation section (§IV) and prints the same rows/series the paper plots.
//
// Usage:
//
//	vedrbench [-fig 9|10|11|12|13|14|ext|chaos|all] [-paper] [-scale N]
//	          [-workers N] [-journal base] [-trace-dir dir] [-obs-listen addr]
//	          [-cpuprofile f] [-memprofile f]
//
// By default a reduced case census runs in seconds; -paper runs the full
// §IV-A census (60/60/40/60 cases per scenario). Every case grid is an
// entry of the figure table (experiments.Grids) and runs on the
// internal/sweep worker pool (-workers, default GOMAXPROCS). -journal
// checkpoints each grid to base.<grid>.jsonl: SIGINT/SIGTERM stops
// dispatch, lets in-flight cases finish and be journaled, and exits 3;
// rerunning the same command resumes where it stopped and compacts each
// journal to the bytes an unbroken run writes. A failing case does not
// abort the run: completed rows still print, the failed case keys are
// reported at the end, and the exit status is 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"vedrfolnir/internal/experiments"
	"vedrfolnir/internal/obs"
	"vedrfolnir/internal/scenario"
	"vedrfolnir/internal/sweep"
	"vedrfolnir/internal/wire"
)

func main() { os.Exit(run()) }

// exitInterrupted is the status of a run stopped by SIGINT/SIGTERM.
const exitInterrupted = 3

func run() int {
	fig := flag.String("fig", "all", "figure to regenerate: 9, 10, 11, 12, 13, 14, ext, chaos or all")
	paper := flag.Bool("paper", false, "run the full paper case census (60/60/40/60)")
	scaleDen := flag.Float64("scale", 90, "workload scale denominator: sizes and times are 1/N of the paper's")
	workers := flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	journal := flag.String("journal", "", "checkpoint base path: each case grid journals to base.<grid>.jsonl; rerun to resume")
	traceDir := flag.String("trace-dir", "", "write one sim-time Chrome trace per sweep/case study into this directory")
	obsListen := flag.String("obs-listen", "", "serve live /metrics, /debug/vars and /debug/pprof on this address while the sweeps run")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProf := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	cfg := scenario.ConfigForScale(*scaleDen)
	counts := experiments.SmallCaseCounts()
	if *paper {
		counts = experiments.PaperCaseCounts()
	}
	// Every sweep feeds one registry: the per-sweep summary line is read
	// from it, and -obs-listen serves it live. Stdout, journals and traces
	// are identical either way.
	reg := obs.NewRegistry()
	interrupt := make(chan struct{})
	b := &bench{
		grids: experiments.Grids(cfg, counts), rows: map[string][]experiments.Row{},
		paper: *paper, scaleDen: *scaleDen, workers: *workers,
		journal: *journal, traceDir: *traceDir, reg: reg, interrupt: interrupt,
	}
	// The sections in print order: each -fig value, its title, and the
	// steps that print it.
	type step func() error
	sections := []struct {
		fig, title string
		steps      []step
	}{
		{"9", "Fig 9: precision & recall vs baselines", []step{b.grid("fig9", printFig9)}},
		{"10", "Fig 10: processing & bandwidth overhead", []step{b.grid("fig9", printFig10)}},
		{"11", "Fig 11: host monitor overhead (testbed substitute)", []step{printFig11}},
		{"12", "Fig 12: precision & recall over RTT thresholds × detection counts", []step{b.grid("fig12", printFig12)}},
		{"13", "Fig 13: ablations of the step-aware mechanism",
			[]step{b.grid("fig13a", printFig13a), b.grid("fig13b", printFig13b)}},
		{"14", "Fig 14: case study", []step{func() error { return printFig14(cfg, b.caseScope("fig14")) }}},
		{"ext", "Extensions: remaining §II-B anomalies + slowdown distributions",
			[]step{b.grid("ext", printExt), b.grid("slowdowns", printSlowdowns)}},
		{"chaos", "Chaos: precision/recall/confidence vs control-packet loss", []step{b.grid("chaos", printChaos)}},
	}
	want := func(f string) bool { return *fig == "all" || *fig == f }
	known := false
	for _, s := range sections {
		known = known || want(s.fig)
	}
	if !known {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		return 2
	}

	flush, err := obs.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer func() {
		if err := flush(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if *obsListen != "" {
		ln, err := net.Listen("tcp", *obsListen)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer ln.Close() // stops the server goroutine
		reg.PublishExpvar("vedrbench")
		fmt.Fprintf(os.Stderr, "vedrbench: obs on http://%s/metrics\n", ln.Addr())
		go func() { _ = http.Serve(ln, obs.Mux(reg)) }()
	}
	// SIGINT/SIGTERM stop dispatch; in-flight cases finish and are
	// journaled, so rerunning the command loses nothing. A second signal
	// kills the process.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "vedrbench: interrupted; finishing in-flight cases")
		signal.Stop(sigs)
		close(interrupt)
	}()

	code := 0
	for _, s := range sections {
		if !want(s.fig) {
			continue
		}
		start := time.Now()
		fmt.Printf("==== %s ====\n", s.title)
		var err error
		for _, step := range s.steps {
			if err = step(); err != nil {
				break
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			if errors.Is(err, experiments.ErrInterrupted) {
				if *journal != "" {
					fmt.Fprintln(os.Stderr, "vedrbench: finished cases are journaled; rerun the same command to resume")
				}
				code = exitInterrupted
			} else {
				code = 1
			}
			break
		}
		fmt.Printf("(%s in %v)\n\n", s.title, time.Since(start).Round(time.Millisecond))
	}
	if err := b.close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if code != 0 {
		return code
	}
	if len(b.failed) > 0 {
		sort.Strings(b.failed)
		fmt.Fprintf(os.Stderr, "%d case(s) failed (rows above aggregate the remainder):\n", len(b.failed))
		for _, f := range b.failed {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		return 1
	}
	return 0
}

// bench runs the figure table's grids on demand, each at most once, and
// owns what outlives a sweep: journals, tracers, failed case keys.
type bench struct {
	grids []experiments.Grid
	rows  map[string][]experiments.Row

	paper     bool
	scaleDen  float64
	workers   int
	journal   string
	traceDir  string
	reg       *obs.Registry
	interrupt <-chan struct{}

	journals []*sweep.Journal
	traces   []namedTrace
	// failed collects captured case failures; OnResult runs on the
	// sweep's single merging goroutine, so plain append is safe.
	failed []string
}

type namedTrace struct {
	name string
	tr   *obs.Tracer
}

// grid returns a section step: sweep the named grid (if not swept yet)
// and print its rows.
func (b *bench) grid(name string, print func([]experiments.Row)) func() error {
	return func() error {
		rows, err := b.sweep(name)
		if err != nil {
			return err
		}
		print(rows)
		return nil
	}
}

// sweep runs the named grid once and memoizes its rows (fig9 feeds both
// Fig 9 and Fig 10).
func (b *bench) sweep(name string) ([]experiments.Row, error) {
	if rows, ok := b.rows[name]; ok {
		return rows, nil
	}
	g, ok := experiments.Lookup(b.grids, name)
	if !ok {
		return nil, fmt.Errorf("vedrbench: no grid %q", name)
	}
	sw := sweep.Options{
		Workers:   b.workers,
		Progress:  os.Stderr,
		Interrupt: b.interrupt,
		OnResult: func(r sweep.Result) {
			if r.Err != "" {
				b.failed = append(b.failed, fmt.Sprintf("%s: %s", r.Key, r.Err))
			}
		},
		Obs: &obs.Scope{Metrics: b.reg, Trace: b.tracer(name)},
	}
	if b.journal != "" {
		path := fmt.Sprintf("%s.%s.jsonl", b.journal, name)
		j, err := sweep.OpenJournal(path, wire.SweepSpec{Name: name, Paper: b.paper, ScaleDen: b.scaleDen})
		if err != nil {
			return nil, err
		}
		b.journals = append(b.journals, j)
		if n := j.Skipped(); n > 0 {
			fmt.Fprintf(os.Stderr, "vedrbench: journal %s: skipped %d corrupt line(s); those jobs re-run\n", path, n)
		}
		sw.Journal = j
	}
	before := b.reg.Flatten()
	rows, err := g.Run(sw)
	if err == nil || errors.Is(err, experiments.ErrInterrupted) {
		b.summaryLine(name, before)
	}
	if err != nil {
		return nil, err
	}
	b.rows[name] = rows
	return rows, nil
}

// summaryLine emits one machine-readable key=value line per sweep on
// stderr, from the registry every sweep shares (counters as this sweep's
// deltas).
func (b *bench) summaryLine(name string, before map[string]int64) {
	m := b.reg.Flatten()
	delta := func(k string) int64 { return m[k] - before[k] }
	fmt.Fprintf(os.Stderr,
		"vedrbench: %s summary cases=%d done=%d failed=%d skipped=%d pending=%d interrupted=%d wall_ms=%d\n",
		name, m["vedr_sweep_cases"], delta("vedr_sweep_cases_done_total"),
		delta("vedr_sweep_cases_failed_total"), delta("vedr_sweep_cases_skipped_total"),
		m["vedr_sweep_cases_pending"], m["vedr_sweep_interrupted"], m["vedr_sweep_wall_ms"])
}

// tracer returns a fresh tracer for one sweep or case study, or nil
// without -trace-dir. The files are written together at the end, so a
// failure midway still leaves the completed traces in one place.
func (b *bench) tracer(name string) *obs.Tracer {
	if b.traceDir == "" {
		return nil
	}
	tr := obs.NewTracer()
	b.traces = append(b.traces, namedTrace{name, tr})
	return tr
}

// caseScope is the Fig 14 case study's observability scope: its own
// tracer and registry, or nil without -trace-dir.
func (b *bench) caseScope(name string) *obs.Scope {
	tr := b.tracer(name)
	if tr == nil {
		return nil
	}
	return &obs.Scope{Trace: tr, Metrics: obs.NewRegistry()}
}

// close releases the journals (a finished sweep has already compacted
// its own) and writes the collected traces.
func (b *bench) close() error {
	var first error
	for _, j := range b.journals {
		if err := j.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, nt := range b.traces {
		path := filepath.Join(b.traceDir, nt.name+".trace.json")
		if err := nt.tr.WriteFile(path); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (%d events)\n", path, nt.tr.Len())
	}
	return first
}

// failNote annotates a row whose group lost cases to captured failures.
func failNote(failed int) string {
	if failed == 0 {
		return ""
	}
	return fmt.Sprintf("  (!%d failed)", failed)
}

func printFig9(rows []experiments.Row) {
	fmt.Printf("%-18s %-14s %9s %9s %6s\n", "scenario", "system", "precision", "recall", "cases")
	for _, r := range rows {
		fmt.Printf("%-18s %-14s %9.2f %9.2f %6d%s\n",
			r.Kind, r.System, r.Precision(), r.Recall(), r.Seeds, failNote(r.Failed))
	}
}

func printFig10(rows []experiments.Row) {
	fmt.Printf("%-18s %-14s %16s %16s\n", "scenario", "system", "telemetry(B)", "bandwidth(B)")
	for _, r := range rows {
		fmt.Printf("%-18s %-14s %16d %16d%s\n", r.Kind, r.System, r.TelemetryBytes, r.BandwidthBytes, failNote(r.Failed))
	}
}

func printFig11() error {
	rows, err := experiments.Fig11(3)
	if err != nil {
		return err
	}
	fmt.Printf("%-18s %12s %14s %12s\n", "run", "cpu", "alloc(B)", "sim-time")
	for _, r := range rows {
		fmt.Printf("%-18s %12v %14d %12v\n", r.Label, r.CPU.Round(time.Microsecond), r.AllocBytes, r.SimTime)
	}
	return nil
}

func printFig12(rows []experiments.Row) {
	fmt.Printf("%-18s %6s %7s %9s %9s\n", "scenario", "rtt%", "detect", "precision", "recall")
	for _, r := range rows {
		fmt.Printf("%-18s %5.0f%% %7d %9.2f %9.2f%s\n",
			r.Kind, r.Params.RTTFactor*100, r.Params.MaxDetectPerStep, r.Precision(), r.Recall(), failNote(r.Failed))
	}
}

func printFig13a(rows []experiments.Row) {
	fmt.Println("-- Fig 13a: fixed vs step-grained RTT thresholds (contention, ≤3/step) --")
	fmt.Printf("%-22s %9s %16s\n", "threshold", "precision", "telemetry(B)")
	printAblation(rows)
}

func printFig13b(rows []experiments.Row) {
	fmt.Println("-- Fig 13b: detection-count allocation vs unrestricted triggering --")
	fmt.Printf("%-22s %9s %16s\n", "setting", "precision", "telemetry(B)")
	printAblation(rows)
}

func printAblation(rows []experiments.Row) {
	for _, r := range rows {
		fmt.Printf("%-22s %9.2f %16d%s\n", r.Label, r.Precision(), r.TelemetryBytes, failNote(r.Failed))
	}
}

func printExt(rows []experiments.Row) {
	fmt.Println("-- extension anomalies (vedrfolnir) --")
	fmt.Printf("%-18s %9s %9s %16s\n", "scenario", "precision", "recall", "telemetry(B)")
	for _, r := range rows {
		fmt.Printf("%-18s %9.2f %9.2f %16d\n", r.Kind, r.Precision(), r.Recall(), r.TelemetryBytes)
	}
}

func printSlowdowns(rows []experiments.Row) {
	fmt.Println("-- per-step slowdown distributions --")
	for _, r := range rows {
		fmt.Printf("%-18s %s\n", r.Kind, r.Slowdowns)
	}
}

func printChaos(rows []experiments.Row) {
	fmt.Printf("%-18s %7s %9s %9s %11s %6s\n", "scenario", "loss%", "precision", "recall", "confidence", "cases")
	for _, r := range rows {
		note := failNote(r.Failed)
		if r.Incomplete > 0 {
			note += fmt.Sprintf("  (%d incomplete)", r.Incomplete)
		}
		fmt.Printf("%-18s %6.1f%% %9.2f %9.2f %11.2f %6d%s\n",
			r.Kind, r.Params.ChaosLoss*100, r.Precision(), r.Recall(), r.Confidence, r.Seeds, note)
	}
}

func printFig14(cfg scenario.Config, scope *obs.Scope) error {
	study, err := experiments.Fig14Obs(cfg, scope)
	if err != nil {
		return err
	}
	fmt.Println("critical path:", study.CriticalStr)
	fmt.Printf("BF1 (%v) overall score: %.0f\n", study.BF1, study.BF1Score)
	fmt.Printf("BF2 (%v) overall score: %.0f\n", study.BF2, study.BF2Score)
	fmt.Println(strings.TrimSpace(study.Diag.Summary()))
	fmt.Println("\n(waiting graph and provenance DOT available via cmd/vedrgraph)")
	return nil
}
