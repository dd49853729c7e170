// Command vedrsweep drives the internal/sweep engine over a checkpoint
// journal: it runs a named case sweep (the paper's figure grids) across a
// worker pool, journaling every finished case so a killed run can be
// resumed, and inspects journals.
//
// Usage:
//
//	vedrsweep run    -journal path [-sweep fig9|fig12|fig13a|fig13b|ext|slowdowns]
//	                 [-paper] [-scale N] [-workers N] [-cpuprofile f] [-memprofile f]
//	vedrsweep resume -journal path [-workers N] [-cpuprofile f] [-memprofile f]
//	vedrsweep status -journal path
//
// run starts a fresh sweep and refuses an existing journal; resume picks
// an interrupted journal up where it stopped (the sweep spec — job set,
// census, scale — is rebuilt from the journal header) and completes it to
// the same bytes an uninterrupted run would have produced. status reports
// completed/failed/pending counts without running anything. Ctrl-C
// interrupts cleanly: in-flight cases finish and are journaled first.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"vedrfolnir/internal/experiments"
	"vedrfolnir/internal/obs"
	"vedrfolnir/internal/sweep"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]

	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	journal := fs.String("journal", "", "journal file (JSONL); required")
	name := fs.String("sweep", "fig9", "sweep to run: "+strings.Join(experiments.SweepNames(), "|"))
	paper := fs.Bool("paper", false, "run the full paper case census (60/60/40/60)")
	scaleDen := fs.Float64("scale", 90, "workload scale denominator")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	obsListen := fs.String("obs-listen", "", "serve live /metrics, /debug/vars and /debug/pprof on this address while the sweep runs")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProf := fs.String("memprofile", "", "write a heap profile at exit to this file")
	fs.Parse(args)
	if *journal == "" {
		fatal(fmt.Errorf("-journal is required"))
	}
	flush, err := obs.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	flushProfiles = func() {
		if err := flush(); err != nil {
			fmt.Fprintln(os.Stderr, "vedrsweep:", err)
		}
	}
	defer flushProfiles()

	switch cmd {
	case "run":
		if _, err := os.Stat(*journal); err == nil {
			fatal(fmt.Errorf("journal %s already exists; use `vedrsweep resume` to continue it", *journal))
		}
		plan, err := experiments.PlanSweep(*name, *paper, *scaleDen)
		if err != nil {
			fatal(err)
		}
		execute(plan, *journal, *workers, *obsListen)
	case "resume":
		header, _, skipped, err := sweep.ReadJournal(*journal)
		if err != nil {
			fatal(err)
		}
		if skipped > 0 {
			fmt.Fprintf(os.Stderr, "vedrsweep: journal %s: skipped %d corrupt line(s); those jobs re-run\n",
				*journal, skipped)
		}
		plan, err := experiments.PlanFromSpec(header.Spec)
		if err != nil {
			fatal(err)
		}
		execute(plan, *journal, *workers, *obsListen)
	case "status":
		status(*journal)
	default:
		usage()
		flushProfiles()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: vedrsweep <run|resume|status> -journal path [flags]")
	fmt.Fprintln(os.Stderr, "run flags: -sweep name -paper -scale N -workers N -cpuprofile f -memprofile f")
}

// flushProfiles finishes the -cpuprofile/-memprofile files. os.Exit skips
// defers, so every exit path calls it; main points it at the flush once
// the flags are parsed.
var flushProfiles = func() {}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vedrsweep:", err)
	flushProfiles()
	os.Exit(1)
}

// execute runs (or completes) the planned sweep against the journal.
func execute(plan *experiments.SweepPlan, path string, workers int, obsListen string) {
	j, err := sweep.OpenJournal(path, plan.Spec)
	if err != nil {
		fatal(err)
	}
	defer j.Close()

	// The sweep always feeds a metrics registry: the final summary line is
	// sourced from it, and -obs-listen exposes it (plus expvar and pprof)
	// live while cases run. The journal and stdout stay byte-identical
	// either way.
	reg := obs.NewRegistry()
	scope := &obs.Scope{Metrics: reg}
	if obsListen != "" {
		reg.PublishExpvar("vedrsweep")
		ln, err := net.Listen("tcp", obsListen)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "vedrsweep: obs on http://%s/metrics\n", ln.Addr())
		go http.Serve(ln, obs.Mux(reg))
	}

	// SIGINT/SIGTERM stop dispatch; in-flight cases finish and are
	// journaled, so the next resume loses nothing.
	interrupt := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "vedrsweep: interrupted; finishing in-flight cases")
		signal.Stop(sigs)
		close(interrupt)
	}()

	fmt.Fprintf(os.Stderr, "vedrsweep: %s (%d cases) -> %s\n", plan.Spec.Name, len(plan.Jobs), path)
	sum, err := sweep.Run(plan.Jobs, plan.Exec, sweep.Options{
		Workers:   workers,
		Journal:   j,
		Progress:  os.Stderr,
		Interrupt: interrupt,
		Obs:       scope,
	})
	if err != nil {
		fatal(err)
	}
	summaryLine(reg)
	switch {
	case sum.Interrupted:
		fmt.Printf("interrupted: %d/%d cases journaled, %d pending; resume with:\n  vedrsweep resume -journal %s\n",
			len(plan.Jobs)-len(sum.Pending), len(plan.Jobs), len(sum.Pending), path)
		flushProfiles()
		_ = j.Close()
		os.Exit(3)
	case len(sum.Failed) > 0:
		fmt.Printf("done: %d cases (%d resumed from journal), %d failed:\n",
			len(plan.Jobs), sum.Skipped, len(sum.Failed))
		for _, k := range sum.Failed {
			fmt.Println(" ", k)
		}
		flushProfiles()
		_ = j.Close()
		os.Exit(1)
	default:
		fmt.Printf("done: %d cases (%d resumed from journal), journal compacted\n",
			len(plan.Jobs), sum.Skipped)
	}
}

// summaryLine emits one machine-readable key=value line on stderr sourced
// from the observability registry, for scripts wrapping vedrsweep. stdout
// is left untouched so its bytes stay identical to uninstrumented runs.
func summaryLine(reg *obs.Registry) {
	m := reg.Flatten()
	fmt.Fprintf(os.Stderr,
		"vedrsweep: summary cases=%d done=%d failed=%d skipped=%d pending=%d interrupted=%d wall_ms=%d\n",
		m["vedr_sweep_cases"], m["vedr_sweep_cases_done_total"],
		m["vedr_sweep_cases_failed_total"], m["vedr_sweep_cases_skipped_total"],
		m["vedr_sweep_cases_pending"], m["vedr_sweep_interrupted"], m["vedr_sweep_wall_ms"])
}

// status summarizes a journal without running anything.
func status(path string) {
	header, results, skippedLines, err := sweep.ReadJournal(path)
	if err != nil {
		fatal(err)
	}
	if skippedLines > 0 {
		fmt.Fprintf(os.Stderr, "vedrsweep: journal %s: skipped %d corrupt line(s)\n", path, skippedLines)
	}
	plan, err := experiments.PlanFromSpec(header.Spec)
	if err != nil {
		fatal(err)
	}
	// Later lines supersede earlier ones (a resume re-runs failed jobs).
	state := map[string]string{}
	for _, r := range results {
		state[r.Key] = r.Err
	}
	var done, failed int
	var failedKeys []string
	for _, job := range plan.Jobs {
		errStr, ok := state[job.Key()]
		switch {
		case !ok:
		case errStr == "":
			done++
		default:
			failed++
			failedKeys = append(failedKeys, fmt.Sprintf("%s: %s", job.Key(), errStr))
		}
	}
	total := len(plan.Jobs)
	fmt.Printf("sweep:   %s (paper=%v scale=1/%g)\n", header.Spec.Name, header.Spec.Paper, header.Spec.ScaleDen)
	fmt.Printf("journal: %s\n", path)
	fmt.Printf("cases:   %d/%d done, %d failed, %d pending\n", done, total, failed, total-done-failed)
	for _, k := range failedKeys {
		fmt.Println("  failed:", k)
	}
	if done+failed < total {
		fmt.Printf("resume with: vedrsweep resume -journal %s\n", path)
	}
}
