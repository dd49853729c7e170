// Command benchmark is the repository's one-command performance
// benchmark: five named workloads over the case kernel (eventq → fabric →
// telemetry → waitgraph → provenance → diagnose) and the service path
// (client → router → shard → WAL → drain/merge → diagnose), each measured
// end to end with tracing off, or layer by layer with tracing on. See
// README.md for the metric glossary and BENCHMARK.json for the contract.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh --workload sweep-mixed --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh                  # all workloads, both passes, report on stdout
//	bash benchmark/run.sh -repeat 5 -out a.json
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the outcome of one workload in one pass. Its JSON form with
// exactly these four keys is the last stdout line of a --workload run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runCtx carries one run's arguments into a workload.
type runCtx struct {
	workload string
	seed     int64
	seconds  time.Duration
	size     sizing
	daemon   string    // vedranalyzerd binary
	tmp      string    // scratch root for WAL directories
	outDir   string    // where trace files land
	log      io.Writer // progress and the human-readable report
}

// say and sayln write human-readable output. Nobody reads their error: a
// closed terminal is no reason to throw a measurement away, and the result
// line, which is what matters, is written and checked separately.
func say(w io.Writer, format string, args ...any) { _, _ = fmt.Fprintf(w, format, args...) }

func sayln(w io.Writer, args ...any) { _, _ = fmt.Fprintln(w, args...) }

// logf writes one progress line.
func (c *runCtx) logf(format string, args ...any) { say(c.log, format+"\n", args...) }

// runWorkload dispatches one workload in one pass and fills in every
// metric of that pass (zero for a layer the workload does not touch).
func runWorkload(c *runCtx, traced bool) (result, error) {
	var (
		vals map[string]float64
		acct tally
		err  error
	)
	switch c.workload {
	case wlSweepMixed:
		vals, acct, err = runSweep(c, 1, traced)
	case wlSweepParallel:
		vals, acct, err = runSweep(c, numWorkers(), traced)
	case wlDiagnoseLarge:
		vals, acct, err = runDiagnose(c, traced)
	case wlIngestStream:
		vals, acct, err = runIngest(c, false, traced)
	case wlIngestDurable:
		vals, acct, err = runIngest(c, true, traced)
	default:
		return result{}, fmt.Errorf("unknown workload %q (have %v)", c.workload, workloadNames)
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", c.workload, err)
	}
	defs := passDefs(traced)
	res := result{
		Correct:   acct.failed == 0 && acct.attempted > 0,
		Attempted: acct.attempted,
		Failed:    acct.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metric{Value: vals[d.Name], Unit: d.Unit}
	}
	for _, note := range acct.notes {
		c.logf("  FAILED: %s", note)
	}
	return res, nil
}

// tally counts operations attempted and failed, with a note per failure.
type tally struct {
	attempted int
	failed    int
	notes     []string
}

// ok counts n operations that succeeded.
func (t *tally) ok(n int) { t.attempted += n }

// check counts one operation, failed unless cond holds.
func (t *tally) check(cond bool, format string, args ...any) {
	t.attempted++
	if cond {
		return
	}
	t.failed++
	if len(t.notes) < 20 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// passDefs returns the metrics of a pass.
func passDefs(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printMetrics writes a result's metrics in definition order. In the
// traced pass a layer the workload does not exercise reads 0 and is left
// out.
func printMetrics(w io.Writer, res result, traced bool) {
	for _, d := range passDefs(traced) {
		if m := res.Metrics[d.Name]; m.Value != 0 || !traced {
			say(w, "  %-34s %14.4f %s\n", d.Name, m.Value, m.Unit)
		}
	}
}

// record is one result as stored in a results file.
type record struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	Seed     int64  `json:"seed"`
	result
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (default: all five, both passes)")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long one run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, tracing on")
	smoke := fs.Bool("smoke", false, "run at about 1/50 size (harness check, not a measurement)")
	daemon := fs.String("daemon", "", "vedranalyzerd binary (default: next to this binary)")
	repeat := fs.Int("repeat", 1, "without -workload: run this many sets, each on its own seed")
	out := fs.String("out", "", "without -workload: also write the results to this JSON file")
	compare := fs.Bool("compare", false, "compare two results files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			sayln(stderr, "benchmark: -compare needs two results files")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 || *repeat < 1 {
		sayln(stderr, "benchmark: --trace is 0 or 1, --seconds and -repeat are positive")
		return 2
	}
	if *daemon == "" {
		exe, err := os.Executable()
		if err != nil {
			sayln(stderr, "benchmark:", err)
			return 1
		}
		*daemon = filepath.Join(filepath.Dir(exe), "vedranalyzerd")
	}
	if _, err := os.Stat(*daemon); err != nil {
		say(stderr, "benchmark: no vedranalyzerd binary (%v); run through benchmark/run.sh or pass -daemon\n", err)
		return 1
	}
	abs, err := filepath.Abs(*daemon)
	if err != nil {
		sayln(stderr, "benchmark:", err)
		return 1
	}
	c := &runCtx{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		size:    fullSize(),
		daemon:  abs,
		tmp:     filepath.Join(".bench_build", "tmp"),
		outDir:  filepath.Join("benchmark", "out"),
		log:     stderr,
	}
	if *smoke {
		c.size = smokeSize()
	}
	if err := os.MkdirAll(c.tmp, 0o755); err != nil {
		sayln(stderr, "benchmark:", err)
		return 1
	}

	if *workload != "" {
		c.workload = *workload
		res, err := runWorkload(c, *trace == 1)
		if err != nil {
			sayln(stderr, "benchmark:", err)
			return 1
		}
		c.logf("%s (seed %d, trace %d): attempted %d, failed %d", c.workload, c.seed, *trace, res.Attempted, res.Failed)
		printMetrics(stderr, res, *trace == 1)
		line, err := json.Marshal(res)
		if err != nil {
			sayln(stderr, "benchmark:", err)
			return 1
		}
		if _, err := fmt.Fprintln(stdout, string(line)); err != nil {
			sayln(stderr, "benchmark:", err)
			return 1
		}
		if !res.Correct {
			return 1
		}
		return 0
	}
	return runAll(c, *repeat, *out, stdout, stderr)
}

// runAll runs every workload untraced then traced, repeat times, prints
// the report and optionally saves the records for -compare.
func runAll(c *runCtx, repeat int, out string, stdout, stderr io.Writer) int {
	var records []record
	failed := false
	for rep := 0; rep < repeat; rep++ {
		seed := c.seed + int64(rep)
		for _, w := range workloadNames {
			for trace := 0; trace <= 1; trace++ {
				rc := *c
				rc.workload, rc.seed = w, seed
				res, err := runWorkload(&rc, trace == 1)
				if err != nil {
					sayln(stderr, "benchmark:", err)
					return 1
				}
				records = append(records, record{Workload: w, Trace: trace, Seed: seed, result: res})
				say(stdout, "%s seed %d trace %d: attempted %d, failed %d\n", w, seed, trace, res.Attempted, res.Failed)
				printMetrics(stdout, res, trace == 1)
				failed = failed || !res.Correct
			}
		}
	}
	if repeat > 1 {
		printSpread(stdout, records)
	}
	if out != "" {
		data, err := json.MarshalIndent(records, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			sayln(stderr, "benchmark:", err)
			return 1
		}
	}
	if failed {
		sayln(stderr, "benchmark: failed operations; see above")
		return 1
	}
	return 0
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
