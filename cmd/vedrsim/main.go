// Command vedrsim runs one collective-communication scenario end-to-end on
// the simulated RoCEv2 fat-tree and prints Vedrfolnir's diagnosis.
//
// Usage:
//
//	vedrsim [-anomaly contention|incast|storm|backpressure|clean]
//	        [-seed N] [-system vedrfolnir|hawkeye-maxr|hawkeye-minr|full-polling]
//	        [-scale N] [-v] [-stages]
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"vedrfolnir/internal/obs"
	"vedrfolnir/internal/scenario"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/wire"
)

func main() {
	anomaly := flag.String("anomaly", "contention", "anomaly to inject: contention, incast, storm, backpressure, loop, imbalance, clean")
	system := flag.String("system", "vedrfolnir", "diagnosis system: vedrfolnir, hawkeye-maxr, hawkeye-minr, full-polling")
	seed := flag.Int64("seed", 1, "case seed")
	scaleDen := flag.Float64("scale", 90, "workload scale denominator")
	verbose := flag.Bool("v", false, "print the full diagnosis summary")
	dump := flag.String("dump", "", "write the diagnosis inputs as a JSON bundle (for vedranalyze)")
	tracePath := flag.String("trace", "", "write a sim-time Chrome trace (Perfetto-loadable) of the run")
	logRun := flag.Bool("log", false, "emit the run's structured sim-time log on stderr")
	stageTimes := flag.Bool("stages", false, "print hot-path stage wall-time breakdown on stderr (stdout and -dump stay byte-identical)")
	flag.Parse()

	kinds := map[string]scenario.AnomalyKind{
		"contention":   scenario.Contention,
		"incast":       scenario.Incast,
		"storm":        scenario.PFCStorm,
		"backpressure": scenario.PFCBackpressure,
		"loop":         scenario.Loop,
		"imbalance":    scenario.LoadImbalance,
		"clean":        scenario.Clean,
	}
	kind, ok := kinds[*anomaly]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown anomaly %q\n", *anomaly)
		os.Exit(2)
	}
	systems := map[string]scenario.SystemKind{
		"vedrfolnir":   scenario.Vedrfolnir,
		"hawkeye-maxr": scenario.HawkeyeMaxR,
		"hawkeye-minr": scenario.HawkeyeMinR,
		"full-polling": scenario.FullPolling,
	}
	sys, ok := systems[*system]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown system %q\n", *system)
		os.Exit(2)
	}

	cfg := scenario.ConfigForScale(*scaleDen)

	cs, err := scenario.GenerateCase(kind, *seed, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	opts := scenario.DefaultRunOptions(cfg)
	var scope *obs.Scope
	if *tracePath != "" || *logRun {
		scope = &obs.Scope{Metrics: obs.NewRegistry()}
		if *tracePath != "" {
			scope.Trace = obs.NewTracer()
		}
		if *logRun {
			scope.Log = obs.NewLogger(os.Stderr, slog.LevelInfo, nil)
		}
		opts.Obs = scope
	}
	// Stage wall times go to a dedicated registry, never the Obs scope:
	// the -dump bundle's metrics must stay byte-identical across runs.
	var stageReg *obs.Registry
	if *stageTimes {
		stageReg = obs.NewRegistry()
		sw := simtime.NewSystemStopwatch()
		opts.Stages = obs.NewStages(stageReg, func() int64 { return int64(sw.Elapsed()) })
	}
	start := time.Now()
	res, err := scenario.Run(cs, sys, cfg, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("scenario:   %v (seed %d) under %v\n", kind, *seed, sys)
	fmt.Printf("completed:  %v (simulated %v, wall %v)\n",
		res.Completed, res.CollectiveTime, time.Since(start).Round(time.Millisecond))
	fmt.Printf("outcome:    %v\n", res.Outcome)
	if len(cs.Flows) > 0 {
		fmt.Println("ground truth flows:")
		for _, f := range cs.Flows {
			fmt.Printf("  %v  %d bytes starting at %v\n", f.Key, f.Bytes, f.StartAt)
		}
	}
	if cs.Kind == scenario.PFCStorm {
		fmt.Printf("ground truth storm: switch %d ingress %d for %v from %v\n",
			cs.StormSwitch, cs.StormPort, cs.StormDur, cs.StormStart)
	}
	if cs.Kind == scenario.PFCBackpressure {
		fmt.Printf("ground truth root: %v\n", cs.BackpressureRoot)
	}
	fmt.Printf("detections: %d reports, %d telemetry bytes, %d bandwidth bytes\n",
		res.ReportCount, res.Overhead.TelemetryBytes, res.Overhead.Bandwidth())
	if stageReg != nil {
		fmt.Fprintf(os.Stderr, "%-20s %10s %12s %10s %10s %10s\n",
			"stage", "count", "total(ms)", "p50(us)", "p95(us)", "p99(us)")
		for _, r := range obs.StageSummary(stageReg) {
			fmt.Fprintf(os.Stderr, "%-20s %10d %12.1f %10.1f %10.1f %10.1f\n",
				r.Stage, r.Count, r.TotalMs, r.P50Us, r.P95Us, r.P99Us)
		}
	}
	if *tracePath != "" {
		if err := scope.Trace.WriteFile(*tracePath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (%d events)\n", *tracePath, scope.Trace.Len())
	}
	if *dump != "" {
		f, err := os.Create(*dump)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		bundle := wire.NewBundle(res.Records, res.Reports, res.CFs)
		if scope != nil {
			bundle.Metrics = scope.M().Flatten()
		}
		if err := bundle.Write(f); err != nil {
			_ = f.Close() // the write error is the one worth reporting
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("bundle written to", *dump)
	}
	if *verbose {
		fmt.Println("---- diagnosis ----")
		fmt.Print(res.Diag.Summary())
	} else {
		for _, f := range res.Diag.Findings {
			fmt.Printf("finding:    %v at %v", f.Type, f.Port)
			if len(f.Culprits) > 0 {
				fmt.Printf(" culprits=%v", f.Culprits)
			}
			if f.RootPort.Node != 0 || f.RootPort.Port != 0 {
				fmt.Printf(" root=%v", f.RootPort)
			}
			fmt.Println()
		}
	}
}
