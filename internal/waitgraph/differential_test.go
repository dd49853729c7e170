package waitgraph_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"vedrfolnir/internal/collective"
	"vedrfolnir/internal/scenario"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/topo"
	"vedrfolnir/internal/waitgraph"
)

// Ids an untrusted bundle or daemon client may send: the decoder accepts any
// int32 host and any int step.
var (
	hostileHosts = []topo.NodeID{math.MinInt32, math.MaxInt32, -2, topo.None}
	hostileSteps = []int{math.MinInt, math.MaxInt, 1 << 62, -(1 << 62), -1}
)

// walkBounded reports whether CriticalPath terminates on recs in time. Its
// walk steps a flow down through record-less steps until step 0, so a
// source at a negative or huge step makes it (and the reference) run
// without end; those sets compare everything but the critical path.
func walkBounded(recs []collective.StepRecord) bool {
	for _, rec := range recs {
		if rec.Step < 0 || rec.Step > 1<<10 {
			return false
		}
	}
	return true
}

// assertMatchesReference builds recs both ways and compares every query,
// then prunes both and compares again. Each record carries its input index
// in Flow.SrcPort, so Record also says which of several duplicates won.
func assertMatchesReference(t *testing.T, name string, recs []collective.StepRecord) {
	t.Helper()
	got, want := waitgraph.Build(recs), waitgraph.BuildReference(recs)
	eq := func(what string, g, w any) {
		t.Helper()
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: %s = %v, reference %v", name, what, g, w)
		}
	}
	eq("Vertices", got.Vertices(), want.Vertices())
	eq("Edges", got.Edges(), want.Edges())
	gs, gok := got.Source()
	ws, wok := want.Source()
	eq("Source", fmt.Sprint(gs, gok), fmt.Sprint(ws, wok))
	if walkBounded(recs) {
		gp, gspan := got.CriticalPath()
		wp, wspan := want.CriticalPath()
		eq("CriticalPath", gp, wp)
		eq("CriticalPath span", gspan, wspan)
	}
	eq("TotalTime", got.TotalTime(), want.TotalTime())
	eq("StepCount", got.StepCount(), want.StepCount())
	eq("SlowestSteps", got.SlowestSteps(len(recs)+1), want.SlowestSteps(len(recs)+1))
	refs := []waitgraph.StepRef{{Host: 12345, Step: 0}, {Host: 0, Step: -7}}
	for _, rec := range recs {
		refs = append(refs, waitgraph.StepRef{Host: rec.Host, Step: rec.Step},
			waitgraph.StepRef{Host: rec.WaitSrc, Step: rec.WaitStep})
	}
	for _, ref := range refs {
		grec, gok := got.Record(ref)
		wrec, wok := want.Record(ref)
		eq(fmt.Sprintf("Record(%v)", ref), fmt.Sprint(grec, gok), fmt.Sprint(wrec, wok))
	}

	eq("Prune", got.Prune(), want.Prune())
	eq("pruned Vertices", got.Vertices(), want.Vertices())
	eq("pruned Edges", got.Edges(), want.Edges())
	if n := got.Prune(); n != 0 {
		t.Fatalf("%s: second Prune removed %d", name, n)
	}
	if n := want.Prune(); n != 0 {
		t.Fatalf("%s: second reference Prune removed %d", name, n)
	}
}

// randomRecords is a small record set over a few hosts and steps, so ids
// collide: duplicate (host, step) records, often with tied End, missing
// steps, waits on records that do not exist, self-waits and wait cycles,
// and in one set of four, hostile ids.
func randomRecords(rng *rand.Rand) []collective.StepRecord {
	hosts, steps := 1+rng.Intn(5), 1+rng.Intn(6)
	hostile := rng.Intn(4) == 0
	host := func() topo.NodeID {
		if hostile && rng.Intn(6) == 0 {
			return hostileHosts[rng.Intn(len(hostileHosts))]
		}
		return topo.NodeID(rng.Intn(hosts + 1)) // one host past the range has no records
	}
	step := func() int {
		if hostile && rng.Intn(6) == 0 {
			return hostileSteps[rng.Intn(len(hostileSteps))]
		}
		return rng.Intn(steps)
	}
	var recs []collective.StepRecord
	for i, n := 0, rng.Intn(40); i < n; i++ {
		start := simtime.Time(rng.Intn(50))
		rec := collective.StepRecord{
			Host: host(), Step: step(), Start: start, End: start.Add(simtime.Duration(rng.Intn(25) - 4)),
			WaitSrc: topo.None, BoundByWait: rng.Intn(2) == 0,
		}
		switch rng.Intn(4) {
		case 0: // no data dependency
		case 1:
			rec.WaitSrc, rec.WaitStep = rec.Host, rec.Step
		default:
			rec.WaitSrc, rec.WaitStep = host(), step()
		}
		recs = append(recs, rec)
		if rng.Intn(5) == 0 {
			dup := rec
			dup.BoundByWait = !rec.BoundByWait
			if rng.Intn(2) == 0 {
				dup.End = rec.End.Add(simtime.Duration(rng.Intn(7) - 3))
			}
			recs = append(recs, dup)
		}
	}
	return tagged(recs)
}

// tagged numbers each record through Flow.SrcPort.
func tagged(recs []collective.StepRecord) []collective.StepRecord {
	for i := range recs {
		recs[i].Flow.SrcPort = uint16(i)
	}
	return recs
}

// realRecordSets runs Ring and Halving-Doubling AllGather cases and returns
// the step records the runner reported.
func realRecordSets(t *testing.T) [][]collective.StepRecord {
	t.Helper()
	var sets [][]collective.StepRecord
	for _, alg := range []collective.Algorithm{collective.Ring, collective.HalvingDoubling} {
		for _, kind := range []scenario.AnomalyKind{scenario.Contention, scenario.PFCStorm} {
			cfg := scenario.ConfigForScale(360)
			cfg.Alg = alg
			cs, err := scenario.GenerateCase(kind, 1, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := scenario.Run(cs, scenario.Vedrfolnir, cfg, scenario.DefaultRunOptions(cfg))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Records) == 0 {
				t.Fatalf("%v %v: no step records", alg, kind)
			}
			sets = append(sets, res.Records)
		}
	}
	return sets
}

// mutate damages a real record set the way a lossy or hostile transport
// could: reordered, records lost, records repeated, waits pointing nowhere.
func mutate(rng *rand.Rand, base []collective.StepRecord) []collective.StepRecord {
	var recs []collective.StepRecord
	for _, rec := range base {
		if rng.Intn(8) == 0 {
			continue
		}
		if rng.Intn(10) == 0 {
			rec.WaitSrc = 999
		}
		recs = append(recs, rec)
		if rng.Intn(10) == 0 {
			dup := rec
			dup.Start = dup.Start.Add(1)
			recs = append(recs, dup)
		}
	}
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	return tagged(recs)
}

// TestBuildMatchesReference holds Build to the map-based reference on 256
// random record sets and on real Ring and Halving-Doubling record sets,
// as reported and damaged 16 ways each.
func TestBuildMatchesReference(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 256; seed++ {
		assertMatchesReference(t, fmt.Sprintf("random seed %d", seed), randomRecords(rand.New(rand.NewSource(seed))))
		checked++
	}
	for i, base := range realRecordSets(t) {
		assertMatchesReference(t, fmt.Sprintf("real set %d", i), tagged(append([]collective.StepRecord(nil), base...)))
		checked++
		rng := rand.New(rand.NewSource(int64(i)))
		for m := 0; m < 16; m++ {
			assertMatchesReference(t, fmt.Sprintf("real set %d mutation %d", i, m), mutate(rng, base))
			checked++
		}
	}
	if checked < 300 {
		t.Fatalf("compared %d record sets, want at least 300", checked)
	}
}

// fuzzRecords decodes 8 bytes a record: small host and step ranges so ids
// collide, with hostile ids, unknown waits, self waits, negative durations
// and End ties all reachable.
func fuzzRecords(data []byte) []collective.StepRecord {
	var recs []collective.StepRecord
	for len(data) >= 8 {
		b := data[:8]
		data = data[8:]
		rec := collective.StepRecord{
			Host: topo.NodeID(b[0] % 6), Step: int(b[1] % 8),
			Start: simtime.Time(b[2]), WaitSrc: topo.None, BoundByWait: b[6]&1 == 1,
		}
		if b[0] >= 0xf0 {
			rec.Host = hostileHosts[int(b[0])%len(hostileHosts)]
		}
		if b[1] >= 0xf0 {
			rec.Step = hostileSteps[int(b[1])%len(hostileSteps)]
		}
		rec.End = rec.Start.Add(simtime.Duration(int8(b[3])))
		switch b[4] % 4 {
		case 0:
		case 1:
			rec.WaitSrc, rec.WaitStep = rec.Host, rec.Step
		default:
			rec.WaitSrc, rec.WaitStep = topo.NodeID(b[4]>>2%7), int(b[5]%9)-1
		}
		recs = append(recs, rec)
	}
	return tagged(recs)
}

// FuzzWaitGraphBuild is the differential check on fuzzer-chosen record
// sets of up to 64 records.
func FuzzWaitGraphBuild(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 10, 0, 0, 0, 0, 1, 0, 0, 10, 0, 0, 0, 0, 1, 1, 10, 10, 2, 0, 1, 0})
	f.Add([]byte{0xf0, 0xf1, 5, 5, 1, 0, 0, 0, 0xf3, 0xf4, 5, 5, 3, 3, 1, 0, 0, 0, 5, 5, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8*64 {
			return // long inputs only slow minimisation down
		}
		assertMatchesReference(t, "fuzz", fuzzRecords(data))
	})
}
