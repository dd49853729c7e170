package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"vedrfolnir/internal/collective"
	"vedrfolnir/internal/diagnose"
	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/monitor"
	"vedrfolnir/internal/provenance"
	"vedrfolnir/internal/rdma"
	"vedrfolnir/internal/sim"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/telemetry"
	"vedrfolnir/internal/topo"
	"vedrfolnir/internal/waitgraph"
	"vedrfolnir/internal/wire"
)

// Shape of diagnose-large's inputs: Ring AllGather on a K=8 fat-tree (128
// hosts) with diagStepBytes per step and diagBackground disturbing flows.
const (
	diagFatTreeK   = 8
	diagStepBytes  = 256 << 10
	diagCellSize   = 16 << 10
	diagBackground = 24
)

// A simulated collective yields anywhere between 300 and 650 reports of 2
// to 12 KB depending on where the seed puts the background flows, and the
// analyzer's cost follows. Every bundle therefore keeps sizing.DiagReports
// of them, the ones nearest diagReportBytes, so that the work per iteration
// barely depends on the seed.
const diagReportBytes = 6 << 10

// diagInput is one analyzer input set, in memory and serialised.
type diagInput struct {
	name    string
	records []collective.StepRecord
	reports []*telemetry.Report
	cfs     map[fabric.FlowKey]bool
	stepOf  func(fabric.FlowKey) (waitgraph.StepRef, bool)
	bundle  []byte
	want    string // the summary every analysis of this input must print
}

// buildDiagInput simulates one collective with the monitoring system
// attached and keeps what the analyzer would receive. It assembles
// topo/sim/fabric/rdma/collective/monitor the way vedrfolnir.NewSession
// does, because the session does not hand out its records and reports.
func buildDiagInput(name string, seed int64, ranks, keepReports int) (*diagInput, error) {
	ft, err := topo.NewFatTree(topo.FatTreeConfig{
		K: diagFatTreeK, Bandwidth: 100 * simtime.Gbps, Delay: 2 * time.Microsecond,
	})
	if err != nil {
		return nil, err
	}
	k := sim.New(seed)
	k.SetEventLimit(2_000_000_000)
	net := fabric.NewNetwork(k, ft.Topology, fabric.DefaultConfig())
	rcfg := rdma.DefaultConfig()
	rcfg.CellSize = diagCellSize
	hosts := make(map[topo.NodeID]*rdma.Host)
	for _, id := range ft.Hosts() {
		h, err := rdma.NewHost(k, net, id, rcfg)
		if err != nil {
			return nil, err
		}
		hosts[id] = h
	}
	members := ft.Hosts()[:ranks]
	schedules, err := collective.Decompose(collective.Spec{
		Op: collective.AllGather, Alg: collective.Ring, Ranks: members,
		Bytes: diagStepBytes * int64(ranks),
	})
	if err != nil {
		return nil, err
	}
	runner, err := collective.NewRunner(k, hosts, schedules)
	if err != nil {
		return nil, err
	}
	runner.Bind()
	cfs := make(map[fabric.FlowKey]bool)
	for _, sch := range schedules {
		for s := range sch.Steps {
			cfs[sch.FlowKey(s)] = true
		}
	}
	mcfg := monitor.DefaultConfig()
	mcfg.CellSize = diagCellSize
	sys := monitor.NewSystem(k, net, runner, hosts, mcfg)

	rng := rand.New(rand.NewSource(seed))
	all := ft.Hosts()
	var injErr error
	for i := 0; i < diagBackground; i++ {
		src := all[rng.Intn(len(all))]
		di := rng.Intn(len(members))
		if members[di] == src {
			di = (di + 1) % len(members)
		}
		dst := members[di]
		key := fabric.FlowKey{Src: src, Dst: dst, SrcPort: uint16(9000 + 10*i), DstPort: uint16(9001 + 10*i), Proto: 17}
		size := int64(1<<20) + rng.Int63n(2<<20)
		at := simtime.Time(rng.Int63n(int64(200 * time.Microsecond)))
		k.At(at, func() {
			if err := hosts[key.Src].Send(key, size); err != nil && injErr == nil {
				injErr = err
			}
		})
	}
	runner.OnComplete = func(simtime.Time) { k.Stop() }
	runner.Start()
	k.Run(simtime.Time(10 * time.Second))
	if injErr != nil {
		return nil, fmt.Errorf("background flow: %w", injErr)
	}
	if err := runner.Err(); err != nil {
		return nil, err
	}
	if done, _ := runner.Done(); !done {
		return nil, fmt.Errorf("%d-rank collective did not complete", ranks)
	}
	reports, err := pickReports(sys.Reports(), keepReports, diagReportBytes)
	if err != nil {
		return nil, err
	}
	in := &diagInput{
		name:    name,
		records: runner.Records(),
		reports: reports,
		cfs:     cfs,
		stepOf: func(f fabric.FlowKey) (waitgraph.StepRef, bool) {
			host, step, ok := runner.StepOf(f)
			return waitgraph.StepRef{Host: host, Step: step}, ok
		},
	}
	var buf bytes.Buffer
	if err := wire.NewBundle(in.records, in.reports, in.cfs).Write(&buf); err != nil {
		return nil, err
	}
	in.bundle = buf.Bytes()
	return in, nil
}

// pickReports keeps the n reports whose exchange form is nearest target
// bytes, in their original order.
func pickReports(all []*telemetry.Report, n, target int) ([]*telemetry.Report, error) {
	if len(all) < n {
		return nil, fmt.Errorf("simulation produced %d reports, need %d", len(all), n)
	}
	type sized struct {
		idx, dist int
	}
	pool := make([]sized, len(all))
	for i, rep := range all {
		b, err := json.Marshal(wire.FromReport(rep))
		if err != nil {
			return nil, err
		}
		d := len(b) - target
		if d < 0 {
			d = -d
		}
		pool[i] = sized{idx: i, dist: d}
	}
	sort.Slice(pool, func(a, b int) bool {
		if pool[a].dist != pool[b].dist {
			return pool[a].dist < pool[b].dist
		}
		return pool[a].idx < pool[b].idx
	})
	keep := pool[:n]
	sort.Slice(keep, func(a, b int) bool { return keep[a].idx < keep[b].idx })
	out := make([]*telemetry.Report, n)
	for i, k := range keep {
		out[i] = all[k.idx]
	}
	return out, nil
}

// diagLBundles L bundles, each from its own simulation, take turns in the
// timed loop: what one analysis costs depends on where the seed put the
// background flows (by about 8% either way), and the mean over three
// inputs depends on it less.
const diagLBundles = 3

// diagSet is the inputs of one run. S is only built for the traced pass.
type diagSet struct {
	s  *diagInput
	l  [diagLBundles]*diagInput
	xl *diagInput
}

// all lists the set's inputs.
func (ds *diagSet) all() []*diagInput {
	var out []*diagInput
	if ds.s != nil {
		out = append(out, ds.s)
	}
	out = append(out, ds.l[:]...)
	return append(out, ds.xl)
}

// diagSetup simulates and serialises the run's bundles.
func diagSetup(c *runCtx, withS bool) (*diagSet, error) {
	sub := func(i int64) int64 { return c.seed*1_000_003 + i }
	var ds diagSet
	var err error
	if withS {
		if ds.s, err = buildDiagInput("S", sub(0), c.size.DiagRanks[0], c.size.DiagReports); err != nil {
			return nil, fmt.Errorf("bundle S: %w", err)
		}
	}
	for i := range ds.l {
		name := fmt.Sprintf("L%d", i+1)
		if ds.l[i], err = buildDiagInput(name, sub(int64(1+i)), c.size.DiagRanks[1], c.size.DiagReports); err != nil {
			return nil, fmt.Errorf("bundle %s: %w", name, err)
		}
	}
	if ds.xl, err = buildDiagInput("XL", sub(100), c.size.DiagRanks[2], c.size.DiagReports); err != nil {
		return nil, fmt.Errorf("bundle XL: %w", err)
	}
	return &ds, nil
}

// diagIteration is the timed unit: decode the bundle, analyze it the way
// the daemon does (per-step provenance graphs on), render the summary.
func diagIteration(tr *tracer, op int, in *diagInput) (summary string, ms float64, err error) {
	t0 := time.Now()
	root := tr.begin(-1, op, "diagnose", "iteration-"+in.name)
	rd := tr.begin(root, op, "wire", "read_bundle-"+in.name)
	b, err := wire.ReadBundle(bytes.NewReader(in.bundle))
	tr.end(rd)
	if err != nil {
		return "", 0, err
	}
	an := tr.begin(root, op, "diagnose", "analyze-"+in.name)
	d := b.Analyze()
	tr.end(an)
	sm := tr.begin(root, op, "diagnose", "summary-"+in.name)
	summary = d.Summary()
	tr.end(sm)
	tr.end(root)
	return summary, msSince(t0), nil
}

// runDiagnose is diagnose-large.
func runDiagnose(c *runCtx, traced bool) (map[string]float64, tally, error) {
	var acct tally
	var ds *diagSet
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		built, err := diagSetup(c, traced)
		if err != nil {
			return nil, acct, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i == 0 {
			ds = built
			continue
		}
		for j, in := range built.all() {
			acct.check(bytes.Equal(in.bundle, ds.all()[j].bundle),
				"bundle %s differs between two set-ups on seed %d", in.name, c.seed)
		}
	}
	for _, in := range ds.all() {
		c.logf("  bundle %-2s: %d records, %d reports, %d KB", in.name, len(in.records), len(in.reports), len(in.bundle)>>10)
	}

	// Untimed warm-up, which also fixes what every later iteration must
	// print: the summary of the direct analysis of the in-memory inputs.
	for _, in := range ds.all() {
		in.want = diagnose.Analyze(diagnose.Input{
			Records: in.records, Reports: in.reports, CFs: in.cfs, StepOf: in.stepOf,
		}).Summary()
		got, _, err := diagIteration(nil, 0, in)
		if err != nil {
			return nil, acct, err
		}
		acct.check(got == in.want, "bundle %s: decoded analysis differs from the direct analysis", in.name)
	}

	var vals map[string]float64
	var err error
	if traced {
		vals, err = traceDiagnose(c, ds, &acct)
	} else {
		vals, err = timeDiagnose(c, ds, &acct)
	}
	if err != nil {
		return nil, acct, err
	}
	vals["setup_s"] = median(setups)
	return vals, acct, nil
}

// checkedIteration runs one iteration and checks what it printed.
func checkedIteration(tr *tracer, op int, in *diagInput, acct *tally) (float64, error) {
	got, ms, err := diagIteration(tr, op, in)
	if err != nil {
		return 0, err
	}
	acct.check(got == in.want, "bundle %s: summary changed between iterations", in.name)
	return ms, nil
}

// timeDiagnose is the untraced pass: cycles of one XL iteration and
// DiagLPerCycle L iterations, the L bundles taking turns, until the time
// is up.
func timeDiagnose(c *runCtx, ds *diagSet, acct *tally) (map[string]float64, error) {
	var lMS [diagLBundles][]float64
	var xlMS []float64
	start := time.Now()
	for cycle := 0; cycle == 0 || time.Since(start) < c.seconds; cycle++ {
		ms, err := checkedIteration(nil, 0, ds.xl, acct)
		if err != nil {
			return nil, err
		}
		xlMS = append(xlMS, ms)
		for i := 0; i < c.size.DiagLPerCycle; i++ {
			b := i % diagLBundles
			ms, err := checkedIteration(nil, 0, ds.l[b], acct)
			if err != nil {
				return nil, err
			}
			lMS[b] = append(lMS[b], ms)
		}
	}
	// The L bundles cost different amounts, so their iteration times are
	// not one distribution: the median is the mean of the per-bundle
	// medians, and the tail is read off the iterations' slowdowns against
	// their own bundle's median. Throughput is that of a cycle in which
	// every iteration takes its median time, which a noisy minority of
	// iterations does not move.
	p50, n := 0.0, 0
	cycleMS := median(xlMS)
	var slowdown []float64
	for b, xs := range lMS {
		m := median(xs)
		p50 += m / diagLBundles
		n += len(xs)
		for _, x := range xs {
			slowdown = append(slowdown, x/m)
		}
		for i := b; i < c.size.DiagLPerCycle; i += diagLBundles {
			cycleMS += m
		}
	}
	c.logf("  L n=%d, tail at p75 of the slowdown against the bundle's median (p%g has ten samples beyond it); XL n=%d",
		n, 100*tailQuantile(n), len(xlMS))
	return map[string]float64{
		"ops_per_s":   float64(1+c.size.DiagLPerCycle) / (cycleMS / 1e3),
		"op_p50_ms":   p50,
		"op_tail_ms":  p50 * quantile(slowdown, 0.75),
		"heavy_op_ms": median(xlMS),
	}, nil
}

// traceDiagnose is the traced pass: the same cycles with spans around the
// decode, analyze and summary calls, plus direct timed calls of
// waitgraph.Build+CriticalPath and provenance.Build on the in-memory
// inputs, which the analyzer runs inside Analyze.
func traceDiagnose(c *runCtx, ds *diagSet, acct *tally) (map[string]float64, error) {
	tr := newTracer()
	op := 0
	var plainL, tracedL []float64
	xlAllocs := 0.0
	start := time.Now()
	for cycle := 0; cycle == 0 || time.Since(start) < c.seconds; cycle++ {
		for _, in := range []*diagInput{ds.s, ds.l[0], ds.xl} {
			op++
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := checkedIteration(tr, op, in, acct); err != nil {
				return nil, err
			}
			runtime.ReadMemStats(&after)
			if in == ds.xl {
				xlAllocs = float64(after.Mallocs - before.Mallocs)
			}

			w := tr.begin(-1, op, "waitgraph", "build-"+in.name)
			g := waitgraph.Build(in.records)
			path, _ := g.CriticalPath()
			tr.end(w)
			acct.check(len(path) > 0, "bundle %s: empty critical path", in.name)
			p := tr.begin(-1, op, "provenance", "build-"+in.name)
			pg := provenance.Build(in.reports, in.cfs)
			tr.end(p)
			acct.check(len(pg.Ports()) > 0, "bundle %s: empty provenance graph", in.name)
		}
		// L alternately with and without spans: the tracing overhead.
		for i := 0; i < c.size.DiagLPerCycle; i++ {
			op++
			t, into := tr, &tracedL
			if i%2 == 1 {
				t, into = nil, &plainL
			}
			ms, err := checkedIteration(t, op, ds.l[0], acct)
			if err != nil {
				return nil, err
			}
			*into = append(*into, ms)
		}
	}

	selfNS, calls := tr.selfByName()
	// A span's mean duration: these spans have no children, so self time
	// is the whole span.
	mean := func(key string) float64 {
		if calls[key] == 0 {
			return 0
		}
		return float64(selfNS[key]) / float64(calls[key])
	}
	vals := map[string]float64{
		"waitgraph.build_us_l":   mean("waitgraph.build-L1") / 1e3,
		"waitgraph.build_us_xl":  mean("waitgraph.build-XL") / 1e3,
		"provenance.build_us_l":  mean("provenance.build-L1") / 1e3,
		"provenance.build_us_xl": mean("provenance.build-XL") / 1e3,
		"diagnose.analyze_ms_s":  mean("diagnose.analyze-S") / 1e6,
		"diagnose.analyze_ms_l":  mean("diagnose.analyze-L1") / 1e6,
		"diagnose.analyze_ms_xl": mean("diagnose.analyze-XL") / 1e6,
		"diagnose.allocs_xl":     xlAllocs,
		"wire.read_bundle_ms_l":  mean("wire.read_bundle-L1") / 1e6,
		"wire.read_bundle_ms_xl": mean("wire.read_bundle-XL") / 1e6,
	}
	if l, xl := vals["diagnose.analyze_ms_l"], vals["diagnose.analyze_ms_xl"]; l > 0 && xl > 0 {
		ratio := float64(len(ds.xl.records)) / float64(len(ds.l[0].records))
		vals["diagnose.scaling_exponent"] = math.Log(xl/l) / math.Log(ratio)
	}
	if len(plainL) > 0 && len(tracedL) > 0 {
		vals["trace_overhead_share"] = (median(tracedL) - median(plainL)) / median(plainL)
	}
	total := mean("wire.read_bundle-XL") + mean("diagnose.analyze-XL") + mean("diagnose.summary-XL")
	c.logf("  share of an XL iteration: wire decode %.1f%%, analyze %.1f%%, summary %.1f%%; simulator layers 0%%",
		100*mean("wire.read_bundle-XL")/total, 100*mean("diagnose.analyze-XL")/total, 100*mean("diagnose.summary-XL")/total)
	if err := tr.write(traceFile(c)); err != nil {
		return nil, err
	}
	return vals, nil
}
