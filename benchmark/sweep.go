package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"vedrfolnir/internal/eventq"
	"vedrfolnir/internal/scenario"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/sweep"
	"vedrfolnir/internal/wire"
)

// numWorkers is sweep-parallel's pool size: one worker per CPU.
func numWorkers() int { return runtime.NumCPU() }

// sweepJobs returns the jobs of one sweep.Run pass: SeedsPerPass cases of
// one anomaly kind. A run's cases are its passes 0..len(sweepKinds)-1, one
// per kind, fixed by the seed; runs on different seeds share no case.
func sweepJobs(seed int64, pass int, sz sizing) []sweep.Job {
	base := seed * 1_000_003
	jobs := make([]sweep.Job, 0, sz.SeedsPerPass)
	for i := 0; i < sz.SeedsPerPass; i++ {
		jobs = append(jobs, sweep.Job{Kind: sweepKinds[pass], Seed: base + int64(i), System: scenario.Vedrfolnir})
	}
	return jobs
}

// caseTimes keeps, per case, the fastest wall latency any repetition saw.
// The machine's noise only ever adds time, so the minimum over repetitions
// of identical work is the steadiest estimate of what the code costs.
type caseTimes struct {
	mu   sync.Mutex
	best map[string]float64
}

// wrap times each job of exec.
func (ct *caseTimes) wrap(exec sweep.Exec) sweep.Exec {
	return func(j sweep.Job) (sweep.Result, error) {
		t0 := time.Now()
		r, err := exec(j)
		ms := msSince(t0)
		key := j.Key()
		ct.mu.Lock()
		if cur, ok := ct.best[key]; !ok || ms < cur {
			ct.best[key] = ms
		}
		ct.mu.Unlock()
		return r, err
	}
}

// values returns the per-case minima in key order.
func (ct *caseTimes) values() []float64 {
	out := make([]float64, 0, len(ct.best))
	for _, k := range sortedKeys(ct.best) {
		out = append(out, ct.best[k])
	}
	return out
}

// tallySweep counts a pass's cases: one that sweep captured as an error,
// panic or timeout, or that hit the simulation deadline, failed.
func tallySweep(acct *tally, sum *sweep.Summary) {
	for _, r := range sum.Results {
		acct.check(r.Err == "" && r.Completed, "case %s: err=%q completed=%v", r.Key, r.Err, r.Completed)
	}
}

// sweepSetup generates the run's cases and warms the pool with two cases
// of each kind. It returns a fingerprint of the generated cases.
func sweepSetup(c *runCtx, cfg scenario.Config, exec sweep.Exec, workers int) (string, error) {
	h := sha256.New()
	var warm []sweep.Job
	for pass := range sweepKinds {
		jobs := sweepJobs(c.seed, pass, c.size)
		for _, j := range jobs {
			cs, err := scenario.GenerateCase(j.Kind, j.Seed, cfg)
			if err != nil {
				return "", err
			}
			_, _ = fmt.Fprintf(h, "%+v\n", cs) // a hash never fails to take bytes
		}
		warm = append(warm, jobs[:c.size.VerifySeeds]...)
	}
	sum, err := sweep.Run(warm, exec, sweep.Options{Workers: workers})
	if err != nil {
		return "", err
	}
	if len(sum.Failed) > 0 {
		return "", fmt.Errorf("warm-up cases failed: %v", sum.Failed)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// runSweep is sweep-mixed (workers == 1) and sweep-parallel.
func runSweep(c *runCtx, workers int, traced bool) (map[string]float64, tally, error) {
	cfg := benchConfig()
	opts := benchRunOptions(cfg)
	exec := sweep.Cases(cfg, opts)
	var acct tally

	var setups []float64
	var prints []string
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		fp, err := sweepSetup(c, cfg, exec, workers)
		if err != nil {
			return nil, acct, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		prints = append(prints, fp)
	}
	for _, fp := range prints[1:] {
		acct.check(fp == prints[0], "generated cases differ between two set-ups on seed %d", c.seed)
	}

	var vals map[string]float64
	var err error
	if traced {
		vals, err = traceSweep(c, cfg, opts, workers, &acct)
	} else {
		vals, err = timeSweep(c, exec, workers, &acct)
	}
	if err != nil {
		return nil, acct, err
	}
	vals["setup_s"] = median(setups)
	if err := verifySweep(c, cfg, opts, &acct); err != nil {
		return nil, acct, err
	}
	return vals, acct, nil
}

// timeSweep is the untraced pass: the run's four sweep.Run passes, one per
// anomaly kind, repeated until the time is up. Every repetition does
// identical work, so each pass and each case is reported at its fastest
// repetition.
func timeSweep(c *runCtx, exec sweep.Exec, workers int, acct *tally) (map[string]float64, error) {
	ct := caseTimes{best: map[string]float64{}}
	timed := ct.wrap(exec)
	passMS := make([]float64, len(sweepKinds))
	reps := 0
	start := time.Now()
	for ; reps == 0 || time.Since(start) < c.seconds; reps++ {
		for pass := range sweepKinds {
			jobs := sweepJobs(c.seed, pass, c.size)
			t0 := time.Now()
			sum, err := sweep.Run(jobs, timed, sweep.Options{Workers: workers})
			if err != nil {
				return nil, err
			}
			ms := msSince(t0)
			if reps == 0 || ms < passMS[pass] {
				passMS[pass] = ms
			}
			tallySweep(acct, sum)
		}
	}
	total, heaviest := 0.0, 0.0
	for _, ms := range passMS {
		total += ms
		if ms > heaviest {
			heaviest = ms
		}
	}
	cases := ct.values()
	c.logf("  %d cases x %d repetitions; case latency n=%d, tail at p%g (the highest percentile with ten samples beyond it)",
		len(cases), reps, len(cases), 100*tailQuantile(len(cases)))
	return map[string]float64{
		"ops_per_s":   float64(len(cases)) / (total / 1e3),
		"op_p50_ms":   median(cases),
		"op_tail_ms":  quantile(cases, tailQuantile(len(cases))),
		"heavy_op_ms": heaviest,
	}, nil
}

// verifySweep re-runs a few cases of each kind with one worker and with a
// pool, keeping every case's serialised bundle: the bytes must not depend
// on the worker count, every case must complete and carry a diagnosis.
func verifySweep(c *runCtx, cfg scenario.Config, opts scenario.RunOptions, acct *tally) error {
	var jobs []sweep.Job
	for pass := range sweepKinds {
		jobs = append(jobs, sweepJobs(c.seed, pass, c.size)[:c.size.VerifySeeds]...)
	}
	pool := numWorkers()
	if pool < 2 {
		pool = 2
	}
	var sums [2]sync.Map
	for i, workers := range []int{1, pool} {
		i := i
		exec := func(j sweep.Job) (sweep.Result, error) {
			cs, err := scenario.GenerateCase(j.Kind, j.Seed, cfg)
			if err != nil {
				return sweep.Result{}, err
			}
			res, err := scenario.Run(cs, j.System, cfg, opts)
			if err != nil {
				return sweep.Result{}, err
			}
			if res.Diag == nil {
				return sweep.Result{}, fmt.Errorf("no diagnosis")
			}
			var buf bytes.Buffer
			if err := wire.NewBundle(res.Records, res.Reports, res.CFs).Write(&buf); err != nil {
				return sweep.Result{}, err
			}
			sums[i].Store(j.Key(), sha256.Sum256(buf.Bytes()))
			return sweep.Result{Outcome: res.Outcome, Completed: res.Completed}, nil
		}
		sum, err := sweep.Run(jobs, exec, sweep.Options{Workers: workers})
		if err != nil {
			return err
		}
		tallySweep(acct, sum)
	}
	for _, j := range jobs {
		a, okA := sums[0].Load(j.Key())
		b, okB := sums[1].Load(j.Key())
		acct.check(okA && okB && a == b, "case %s: bundle bytes differ between 1 and %d workers", j.Key(), pool)
	}
	return nil
}

// caseAgg sums what the traced cases report.
type caseAgg struct {
	cases    int64
	self     [numStages]int64
	calls    [numStages]int64
	runNS    int64
	polls    int64
	reports  int64
	overhead int64
	simNS    int64
	tp       int64
}

// memProbe reads the runtime's cumulative allocation and GC-CPU counters.
type memProbe struct {
	samples []metrics.Sample
}

func newMemProbe() *memProbe {
	names := []string{
		"/gc/heap/allocs:objects",
		"/gc/heap/allocs:bytes",
		"/cpu/classes/gc/total:cpu-seconds",
		"/cpu/classes/total:cpu-seconds",
		"/memory/classes/heap/objects:bytes",
	}
	p := &memProbe{samples: make([]metrics.Sample, len(names))}
	for i, n := range names {
		p.samples[i].Name = n
	}
	return p
}

// memReading is one reading of the counters memProbe follows.
type memReading struct {
	objects, bytes float64
	gcCPU, cpu     float64
	heapLive       float64
}

func (p *memProbe) read() memReading {
	metrics.Read(p.samples)
	num := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return memReading{
		objects:  num(p.samples[0]),
		bytes:    num(p.samples[1]),
		gcCPU:    num(p.samples[2]),
		cpu:      num(p.samples[3]),
		heapLive: num(p.samples[4]),
	}
}

// traceSweep is the traced pass. Every pass of jobs runs untraced first
// (the reference the tracing overhead and the allocation figures are read
// against) and then traced: each case gets spans around the calls into
// scenario.GenerateCase and scenario.Run, and a stageClock on the
// RunOptions.Stages hook that splits the run into per-stage self times.
// Counts that must repeat exactly for a seed are read off the first
// repetition alone, because how many repetitions fit depends on the machine.
func traceSweep(c *runCtx, cfg scenario.Config, opts scenario.RunOptions, workers int, acct *tally) (map[string]float64, error) {
	tr := newTracer()
	hs := newStageHists()
	var mu sync.Mutex
	var first, all caseAgg
	var firstPass atomic.Bool
	var ops atomic.Int64

	traced := func(j sweep.Job) (sweep.Result, error) {
		op := int(ops.Add(1))
		root := tr.begin(-1, op, "sweep", "case")
		defer tr.end(root)
		g := tr.begin(root, op, "scenario", "generate")
		cs, err := scenario.GenerateCase(j.Kind, j.Seed, cfg)
		tr.end(g)
		if err != nil {
			return sweep.Result{}, err
		}
		o := opts
		clk := &stageClock{}
		o.Stages = clk.stages(hs)
		r := tr.begin(root, op, "scenario", "run")
		clk.start()
		res, err := scenario.Run(cs, j.System, cfg, o)
		total := clk.stop()
		tr.end(r)
		if err != nil {
			return sweep.Result{}, err
		}
		tr.count(r, map[string]int64{
			"eventq.pushes":          clk.calls[stPush],
			"fabric.forwards":        clk.calls[stForward],
			"telemetry.polls":        res.Overhead.Polls,
			"eventq.push_self_ns":    clk.self[stPush],
			"eventq.pop_self_ns":     clk.self[stPop],
			"fabric.forward_self_ns": clk.self[stForward],
			"telemetry.self_ns":      clk.self[stCollect],
			"waitgraph.self_ns":      clk.self[stWaitgraph],
			"provenance.self_ns":     clk.self[stProvenance],
			"diagnose.self_ns":       clk.self[stDiagnose],
			"sim.unattributed_ns":    clk.self[stUnattributed],
		})
		add := func(a *caseAgg) {
			a.cases++
			for i := range a.self {
				a.self[i] += clk.self[i]
				a.calls[i] += clk.calls[i]
			}
			a.runNS += total
			a.polls += res.Overhead.Polls
			a.reports += int64(res.ReportCount)
			a.overhead += res.Overhead.Bandwidth()
			a.simNS += int64(res.CollectiveTime)
			if res.Outcome == scenario.TP {
				a.tp++
			}
		}
		mu.Lock()
		add(&all)
		if firstPass.Load() {
			add(&first)
		}
		mu.Unlock()
		return sweep.Result{Outcome: res.Outcome, Completed: res.Completed}, nil
	}

	plain := sweep.Cases(cfg, opts)
	probe := newMemProbe()
	var plainNS, tracedNS, serialNS int64
	var mem memReading
	peakHeap := 0.0
	sampled := func(j sweep.Job) (sweep.Result, error) {
		r, err := plain(j)
		live := probe.read().heapLive
		mu.Lock()
		if live > peakHeap {
			peakHeap = live
		}
		mu.Unlock()
		return r, err
	}
	plainCases := 0
	start := time.Now()
	for rep := 0; rep == 0 || time.Since(start) < c.seconds; rep++ {
		firstPass.Store(rep == 0)
		for pass := range sweepKinds {
			jobs := sweepJobs(c.seed, pass, c.size)

			before := probe.read()
			t0 := time.Now()
			sum, err := sweep.Run(jobs, sampled, sweep.Options{Workers: workers})
			if err != nil {
				return nil, err
			}
			plainNS += time.Since(t0).Nanoseconds()
			after := probe.read()
			mem.objects += after.objects - before.objects
			mem.bytes += after.bytes - before.bytes
			mem.gcCPU += after.gcCPU - before.gcCPU
			mem.cpu += after.cpu - before.cpu
			plainCases += len(jobs)
			tallySweep(acct, sum)

			if workers > 1 {
				// The one-worker reference sweep.pool_efficiency divides by.
				t0 = time.Now()
				if _, err := sweep.Run(jobs, plain, sweep.Options{Workers: 1}); err != nil {
					return nil, err
				}
				serialNS += time.Since(t0).Nanoseconds()
			}

			t0 = time.Now()
			sum, err = sweep.Run(jobs, traced, sweep.Options{Workers: workers})
			if err != nil {
				return nil, err
			}
			tracedNS += time.Since(t0).Nanoseconds()
			tallySweep(acct, sum)
		}
	}
	if all.cases == 0 || first.cases == 0 {
		return nil, fmt.Errorf("no traced case completed")
	}

	selfNS, calls := tr.selfByName()
	perCase := func(total int64) float64 { return float64(total) / float64(all.cases) }
	perFirst := func(total int64) float64 { return float64(total) / float64(first.cases) }
	vals := map[string]float64{
		"eventq.pushes_per_case":          perFirst(first.calls[stPush]),
		"eventq.push_ns_per_case":         perCase(all.self[stPush]),
		"eventq.pop_ns_per_case":          perCase(all.self[stPop]),
		"fabric.forwards_per_case":        perFirst(first.calls[stForward]),
		"fabric.forward_ns_per_case":      perCase(all.self[stForward]),
		"telemetry.polls_per_case":        perFirst(first.polls),
		"telemetry.collect_ns_per_case":   perCase(all.self[stCollect]),
		"monitor.reports_per_case":        perFirst(first.reports),
		"monitor.overhead_bytes_per_case": perFirst(first.overhead),
		"sim.unattributed_ns_per_case":    perCase(all.self[stUnattributed]),
		"collective.sim_time_us_per_case": perFirst(first.simNS) / 1e3,
		"scenario.generate_ns_per_case":   float64(selfNS["scenario.generate"]) / float64(calls["scenario.generate"]),
		"scenario.run_ns_per_case":        perCase(all.runNS),
		"scenario.tp_share":               perFirst(first.tp),
		"waitgraph.build_ns_per_case":     perCase(all.self[stWaitgraph]),
		"provenance.rate_ns_per_case":     perCase(all.self[stProvenance]),
		"diagnose.analyze_ns_per_case":    perCase(all.self[stDiagnose]),
		"sweep.allocs_per_case":           mem.objects / float64(plainCases),
		"sweep.alloc_mb_per_case":         mem.bytes / float64(plainCases) / (1 << 20),
		"sweep.peak_heap_mb":              peakHeap / (1 << 20),
		"trace_overhead_share":            float64(tracedNS-plainNS) / float64(plainNS),
	}
	if mem.cpu > 0 {
		vals["sweep.gc_cpu_share"] = mem.gcCPU / mem.cpu
	}
	if workers > 1 {
		vals["sweep.pool_efficiency"] = float64(serialNS) / float64(plainNS) / float64(workers)
	}
	vals["eventq.hold_ns_per_op"], vals["eventq.hold_allocs_per_op"] = holdModel(c.seed, c.size.HoldOps)

	staged := int64(0)
	for _, ns := range all.self {
		staged += ns
	}
	acct.check(staged == all.runNS, "stage self times sum to %d ns, scenario.Run took %d ns", staged, all.runNS)
	share := func(ns int64) float64 { return 100 * float64(ns) / float64(all.runNS) }
	analyzer := all.self[stWaitgraph] + all.self[stProvenance] + all.self[stDiagnose]
	c.logf("  share of scenario.Run: simulator layers %.1f%% (eventq %.1f%%, fabric %.1f%%, telemetry %.1f%%, unattributed %.1f%%), analyzer %.1f%%",
		share(staged-analyzer), share(all.self[stPush]+all.self[stPop]), share(all.self[stForward]),
		share(all.self[stCollect]), share(all.self[stUnattributed]), share(analyzer))
	if err := tr.write(traceFile(c)); err != nil {
		return nil, err
	}
	return vals, nil
}

// traceFile is where a workload's spans are written.
func traceFile(c *runCtx) string {
	return fmt.Sprintf("%s/trace-%s.json", c.outDir, c.workload)
}

// holdModel times the event queue alone with the classic hold loop: a
// queue held at depth 1024, each operation popping the earliest event and
// pushing one a random increment later. It returns ns and heap
// allocations per pop+push pair.
func holdModel(seed int64, ops int) (nsPerOp, allocsPerOp float64) {
	const depth = 1024
	rng := rand.New(rand.NewSource(seed))
	var q eventq.Queue
	fn := func() {}
	for i := 0; i < depth; i++ {
		q.Push(simtime.Time(rng.Int63n(1_000_000)), fn)
	}
	incr := make([]int64, 4096)
	for i := range incr {
		incr[i] = 1 + rng.Int63n(1_000_000)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		e := q.Pop()
		q.Push(e.At+simtime.Time(incr[i%len(incr)]), fn)
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(ops), float64(after.Mallocs-before.Mallocs) / float64(ops)
}
