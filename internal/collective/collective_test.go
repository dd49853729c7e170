package collective

import (
	"fmt"
	"testing"
	"testing/quick"

	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/rdma"
	"vedrfolnir/internal/sim"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/topo"
)

func TestDecomposeValidation(t *testing.T) {
	ranks := []topo.NodeID{0, 1, 2}
	if _, err := Decompose(Spec{Op: AllGather, Alg: Ring, Ranks: ranks[:1], Bytes: 10}); err == nil {
		t.Errorf("single rank should fail")
	}
	if _, err := Decompose(Spec{Op: AllGather, Alg: Ring, Ranks: ranks, Bytes: 0}); err == nil {
		t.Errorf("zero bytes should fail")
	}
	if _, err := Decompose(Spec{Op: AllGather, Alg: HalvingDoubling, Ranks: ranks, Bytes: 10}); err == nil {
		t.Errorf("non-power-of-2 HD should fail")
	}
}

func TestRingAllGatherShape(t *testing.T) {
	ranks := []topo.NodeID{10, 11, 12, 13}
	schs, err := Decompose(Spec{Op: AllGather, Alg: Ring, Ranks: ranks, Bytes: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if len(schs) != 4 {
		t.Fatalf("schedules = %d", len(schs))
	}
	for i, sch := range schs {
		if len(sch.Steps) != 3 {
			t.Fatalf("rank %d: steps = %d, want 3", i, len(sch.Steps))
		}
		right := ranks[(i+1)%4]
		left := ranks[(i+3)%4]
		for s, st := range sch.Steps {
			if st.Dst != right {
				t.Fatalf("rank %d step %d dst = %d, want %d", i, s, st.Dst, right)
			}
			if st.Bytes != 1000 {
				t.Fatalf("rank %d step %d bytes = %d, want 1000", i, s, st.Bytes)
			}
			wantChunk := fmt.Sprintf("C%d", ((i-s)%4+4)%4)
			if st.Chunk != wantChunk {
				t.Fatalf("rank %d step %d chunk = %s, want %s", i, s, st.Chunk, wantChunk)
			}
			if s == 0 && st.WaitSrc != topo.None {
				t.Fatalf("step 0 must not wait, got %d", st.WaitSrc)
			}
			if s > 0 && st.WaitSrc != left {
				t.Fatalf("rank %d step %d waits on %d, want %d", i, s, st.WaitSrc, left)
			}
		}
	}
	// Flow keys are unique across (host, step).
	seen := map[fabric.FlowKey]bool{}
	for _, sch := range schs {
		for s := range sch.Steps {
			k := sch.FlowKey(s)
			if seen[k] {
				t.Fatalf("duplicate flow key %v", k)
			}
			seen[k] = true
		}
	}
}

func TestHalvingDoublingAllGatherShape(t *testing.T) {
	ranks := []topo.NodeID{0, 1, 2, 3, 4, 5, 6, 7}
	schs, err := Decompose(Spec{Op: AllGather, Alg: HalvingDoubling, Ranks: ranks, Bytes: 8000})
	if err != nil {
		t.Fatal(err)
	}
	sch := schs[3] // rank 3
	if len(sch.Steps) != 3 {
		t.Fatalf("steps = %d, want 3", len(sch.Steps))
	}
	wantDst := []topo.NodeID{ranks[3^1], ranks[3^2], ranks[3^4]}
	wantBytes := []int64{1000, 2000, 4000}
	for s, st := range sch.Steps {
		if st.Dst != wantDst[s] {
			t.Fatalf("step %d dst = %d, want %d (destination must change per step)", s, st.Dst, wantDst[s])
		}
		if st.Bytes != wantBytes[s] {
			t.Fatalf("step %d bytes = %d, want %d", s, st.Bytes, wantBytes[s])
		}
	}
	if sch.Steps[0].WaitSrc != topo.None {
		t.Fatalf("first HD step must not wait")
	}
	if sch.Steps[1].WaitSrc != wantDst[0] || sch.Steps[2].WaitSrc != wantDst[1] {
		t.Fatalf("HD wait sources must be the previous partner")
	}
}

func TestHDAllReduceShape(t *testing.T) {
	ranks := []topo.NodeID{0, 1, 2, 3}
	schs, err := Decompose(Spec{Op: AllReduce, Alg: HalvingDoubling, Ranks: ranks, Bytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	sch := schs[0]
	if len(sch.Steps) != 4 { // 2 halving + 2 doubling
		t.Fatalf("steps = %d, want 4", len(sch.Steps))
	}
	wantBytes := []int64{2048, 1024, 1024, 2048}
	for s, st := range sch.Steps {
		if st.Bytes != wantBytes[s] {
			t.Fatalf("step %d bytes = %d, want %d", s, st.Bytes, wantBytes[s])
		}
	}
}

// rig builds a star network with RDMA hosts for execution tests.
type rig struct {
	k     *sim.Kernel
	tp    *topo.Topology
	hosts map[topo.NodeID]*rdma.Host
}

func newRig(t *testing.T, n int) *rig {
	t.Helper()
	tp := topo.New()
	var ids []topo.NodeID
	for i := 0; i < n; i++ {
		ids = append(ids, tp.AddNode(topo.KindHost, fmt.Sprintf("h%d", i)))
	}
	sw := tp.AddNode(topo.KindSwitch, "sw")
	for _, h := range ids {
		tp.AddLink(h, sw, 100*simtime.Gbps, 2*1000)
	}
	tp.ComputeRoutes()
	k := sim.New(3)
	net := fabric.NewNetwork(k, tp, fabric.DefaultConfig())
	cfg := rdma.DefaultConfig()
	cfg.CellSize = 4096
	hosts := make(map[topo.NodeID]*rdma.Host)
	for _, id := range ids {
		h, err := rdma.NewHost(k, net, id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		hosts[id] = h
	}
	return &rig{k: k, tp: tp, hosts: hosts}
}

func runCollective(t *testing.T, r *rig, spec Spec) *Runner {
	t.Helper()
	spec.Ranks = r.tp.Hosts()
	schs, err := Decompose(spec)
	if err != nil {
		t.Fatal(err)
	}
	run, err := NewRunner(r.k, r.hosts, schs)
	if err != nil {
		t.Fatal(err)
	}
	run.Bind()
	run.Start()
	r.k.SetEventLimit(50_000_000)
	r.k.Run(simtime.Never)
	done, _ := run.Done()
	if !done {
		t.Fatalf("collective did not complete (pending steps remain)")
	}
	return run
}

func TestRingAllGatherExecution(t *testing.T) {
	r := newRig(t, 4)
	run := runCollective(t, r, Spec{Op: AllGather, Alg: Ring, Bytes: 64 * 1024})

	if got := len(run.Records()); got != 4*3 {
		t.Fatalf("records = %d, want 12", got)
	}
	// AllGather semantics: every host ends up with every chunk.
	for _, h := range r.tp.Hosts() {
		for c := 0; c < 4; c++ {
			if !run.state[h].chunks[fmt.Sprintf("C%d", c)] {
				t.Fatalf("host %d missing chunk C%d: %v", h, c, run.state[h].chunks)
			}
		}
	}
	// Per-host steps are sequential and dependency-respecting.
	byHost := map[topo.NodeID][]StepRecord{}
	for _, rec := range run.Records() {
		byHost[rec.Host] = append(byHost[rec.Host], rec)
	}
	for h, recs := range byHost {
		for i := 1; i < len(recs); i++ {
			if recs[i].Step != recs[i-1].Step+1 {
				t.Fatalf("host %d steps out of order", h)
			}
			if recs[i].Start < recs[i-1].End {
				t.Fatalf("host %d step %d started before step %d ended", h, recs[i].Step, recs[i-1].Step)
			}
		}
	}
	// Table I counters: all sends and receives complete.
	for _, h := range r.tp.Hosts() {
		if run.SendIndex(h) != 3 {
			t.Fatalf("SendIndex(%d) = %d, want 3", h, run.SendIndex(h))
		}
		if run.RecvIndex(h) != 3 {
			t.Fatalf("RecvIndex(%d) = %d, want 3", h, run.RecvIndex(h))
		}
	}
}

func TestRingAllReduceExecution(t *testing.T) {
	r := newRig(t, 4)
	run := runCollective(t, r, Spec{Op: AllReduce, Alg: Ring, Bytes: 32 * 1024})
	if got := len(run.Records()); got != 4*6 {
		t.Fatalf("records = %d, want 24 (2(N-1) steps × N hosts)", got)
	}
}

func TestHDAllReduceExecution(t *testing.T) {
	r := newRig(t, 8)
	run := runCollective(t, r, Spec{Op: AllReduce, Alg: HalvingDoubling, Bytes: 64 * 1024})
	if got := len(run.Records()); got != 8*6 {
		t.Fatalf("records = %d, want 48 (2·log2(8) steps × 8 hosts)", got)
	}
}

func TestRingOnFatTree(t *testing.T) {
	ft := topo.PaperFatTree()
	k := sim.New(5)
	net := fabric.NewNetwork(k, ft.Topology, fabric.DefaultConfig())
	cfg := rdma.DefaultConfig()
	cfg.CellSize = 16 << 10
	hosts := make(map[topo.NodeID]*rdma.Host)
	ranks := ft.Hosts()[:8]
	for _, id := range ranks {
		h, err := rdma.NewHost(k, net, id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		hosts[id] = h
	}
	schs, err := Decompose(Spec{Op: AllGather, Alg: Ring, Ranks: ranks, Bytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	run, err := NewRunner(k, hosts, schs)
	if err != nil {
		t.Fatal(err)
	}
	run.Bind()
	run.Start()
	k.SetEventLimit(50_000_000)
	k.Run(simtime.Never)
	done, at := run.Done()
	if !done {
		t.Fatalf("fat-tree collective did not complete")
	}
	// Sanity bound: 8 ranks × 7 steps of 128 KiB at 100 Gbps ≈ 10.5µs of
	// serialization per step, so total well under 1 second.
	if at > simtime.Time(1e9) {
		t.Fatalf("completion absurdly late: %v", at)
	}
}

func TestBoundByWaitDetection(t *testing.T) {
	// In a homogeneous ring, sender-side ACK completion always lags the
	// symmetric data arrival, so no step is bound by its data dependency.
	r := newRig(t, 4)
	run := runCollective(t, r, Spec{Op: AllGather, Alg: Ring, Bytes: 64 * 1024})
	for _, rec := range run.Records() {
		if rec.BoundByWait {
			t.Fatalf("homogeneous ring: step %d of host %d bound by wait", rec.Step, rec.Host)
		}
	}

	// Now stall host 0's uplink at the start: its right neighbour's step 1
	// must become bound by the late-arriving dependency (the selective
	// waiting of §III-C1).
	r2 := newRig(t, 4)
	hosts := r2.tp.Hosts()
	sw := r2.tp.Switches()[0]
	net := r2.hosts[hosts[0]].Net
	net.InjectPFCStorm(sw, 0, 0, 200_000) // pause host0's uplink for 200µs

	schs, err := Decompose(Spec{Op: AllGather, Alg: Ring, Ranks: hosts, Bytes: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	run2, err := NewRunner(r2.k, r2.hosts, schs)
	if err != nil {
		t.Fatal(err)
	}
	run2.Bind()
	run2.Start()
	r2.k.SetEventLimit(50_000_000)
	r2.k.Run(simtime.Never)
	if done, _ := run2.Done(); !done {
		t.Fatalf("stalled collective never completed")
	}
	bound := false
	for _, rec := range run2.Records() {
		if rec.Step == 0 && rec.BoundByWait {
			t.Fatalf("step 0 cannot be bound by a wait")
		}
		if rec.WaitSrc == hosts[0] && rec.BoundByWait {
			bound = true
		}
	}
	if !bound {
		t.Fatalf("no step waiting on stalled host0 was bound by the wait: %+v", run2.Records())
	}
}

func TestStepHooks(t *testing.T) {
	r := newRig(t, 4)
	spec := Spec{Op: AllGather, Alg: Ring, Ranks: r.tp.Hosts(), Bytes: 16 * 1024}
	schs, err := Decompose(spec)
	if err != nil {
		t.Fatal(err)
	}
	run, err := NewRunner(r.k, r.hosts, schs)
	if err != nil {
		t.Fatal(err)
	}
	run.Bind()
	starts, ends := 0, 0
	var completeAt simtime.Time
	run.OnStepStart = func(h topo.NodeID, s int, f fabric.FlowKey, at simtime.Time) { starts++ }
	run.OnStepEnd = func(rec StepRecord) { ends++ }
	run.OnComplete = func(at simtime.Time) { completeAt = at }
	run.Start()
	r.k.Run(simtime.Never)
	if starts != 12 || ends != 12 {
		t.Fatalf("starts=%d ends=%d, want 12/12", starts, ends)
	}
	if completeAt == 0 {
		t.Fatalf("OnComplete never fired")
	}
}

func TestBroadcastLeafIndices(t *testing.T) {
	// A leaf rank (no sends) must report zero step counters without
	// panicking, and the collective completes regardless.
	r := newRig(t, 8)
	run := runCollective(t, r, Spec{Op: Broadcast, Bytes: 32 * 1024})
	leaf := r.tp.Hosts()[7]
	if got := run.SendIndex(leaf); got != 0 {
		t.Fatalf("leaf SendIndex = %d", got)
	}
	if got := run.RecvIndex(leaf); got != 0 {
		t.Fatalf("leaf RecvIndex = %d", got)
	}
}

func TestHDReduceScatterExecution(t *testing.T) {
	r := newRig(t, 8)
	run := runCollective(t, r, Spec{Op: ReduceScatter, Alg: HalvingDoubling, Bytes: 64 * 1024})
	if got := len(run.Records()); got != 8*3 {
		t.Fatalf("records = %d, want 24 (log2(8) steps × 8 hosts)", got)
	}
}

func TestRingReduceScatterExecution(t *testing.T) {
	r := newRig(t, 4)
	run := runCollective(t, r, Spec{Op: ReduceScatter, Alg: Ring, Bytes: 32 * 1024})
	if got := len(run.Records()); got != 4*3 {
		t.Fatalf("records = %d, want 12", got)
	}
}

// Property: every decomposition's flow keys are unique and every wait
// reference points at a real step that targets the waiter, across ops,
// algorithms and rank counts.
func TestDecompositionWaitConsistencyProperty(t *testing.T) {
	ops := []Op{AllGather, ReduceScatter, AllReduce, Broadcast, AllToAll}
	algs := []Algorithm{Ring, HalvingDoubling}
	f := func(opSel, algSel, nRaw uint8) bool {
		op := ops[int(opSel)%len(ops)]
		alg := algs[int(algSel)%len(algs)]
		n := int(nRaw)%15 + 2
		if alg == HalvingDoubling && op != Broadcast && op != AllToAll {
			// HD requires power-of-2 ranks.
			n = 1 << (int(nRaw)%4 + 1)
		}
		ranks := make([]topo.NodeID, n)
		for i := range ranks {
			ranks[i] = topo.NodeID(i)
		}
		schs, err := Decompose(Spec{Op: op, Alg: alg, Ranks: ranks, Bytes: int64(n) * 4096})
		if err != nil {
			return false
		}
		byHost := map[topo.NodeID]*Schedule{}
		seen := map[fabric.FlowKey]bool{}
		for _, sch := range schs {
			byHost[sch.Host] = sch
			for s := range sch.Steps {
				k := sch.FlowKey(s)
				if seen[k] {
					return false
				}
				seen[k] = true
			}
		}
		for _, sch := range schs {
			for _, st := range sch.Steps {
				if st.Dst == sch.Host {
					return false
				}
				if st.WaitSrc == topo.None {
					continue
				}
				src := byHost[st.WaitSrc]
				if src == nil || st.WaitStep < 0 || st.WaitStep >= len(src.Steps) {
					return false
				}
				if src.Steps[st.WaitStep].Dst != sch.Host {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
