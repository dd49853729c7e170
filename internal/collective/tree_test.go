package collective

import (
	"fmt"
	"testing"
	"testing/quick"

	"vedrfolnir/internal/topo"
)

func mkRanks(n int) []topo.NodeID {
	out := make([]topo.NodeID, n)
	for i := range out {
		out[i] = topo.NodeID(i)
	}
	return out
}

func TestBroadcastShape(t *testing.T) {
	schs, err := Decompose(Spec{Op: Broadcast, Ranks: mkRanks(8), Bytes: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// Round 0: 0→1; round 1: 0→2, 1→3; round 2: 0→4, 1→5, 2→6, 3→7.
	// Ranks 4–7 receive in the last round and never forward.
	counts := map[int]int{}
	for _, sch := range schs {
		counts[sch.Rank] = len(sch.Steps)
	}
	want := map[int]int{0: 3, 1: 2, 2: 1, 3: 1, 4: 0, 5: 0, 6: 0, 7: 0}
	for r, n := range want {
		if counts[r] != n {
			t.Fatalf("rank %d: %d sends, want %d (counts=%v)", r, counts[r], n, counts)
		}
	}
	// Rank 3's first (only) send waits on rank 1's step that targeted it.
	sch3 := schs[3]
	if sch3.Steps[0].WaitSrc != 1 {
		t.Fatalf("rank 3 waits on %d, want 1", sch3.Steps[0].WaitSrc)
	}
	// Rank 1's step that targets rank 3 is its local step 0 (round 1).
	if sch3.Steps[0].WaitStep != 0 {
		t.Fatalf("rank 3 waits on step %d of rank 1, want 0", sch3.Steps[0].WaitStep)
	}
	if schs[1].Steps[0].Dst != 3 {
		t.Fatalf("rank 1 step 0 targets %d, want 3", schs[1].Steps[0].Dst)
	}
}

// Property: for any N in [2,64], the broadcast tree is consistent — every
// wait references a real (host, step) whose destination is the waiter, and
// simulating round-by-round delivery reaches every rank exactly once.
func TestBroadcastConsistency(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw)%63 + 2
		schs, err := Decompose(Spec{Op: Broadcast, Ranks: mkRanks(n), Bytes: 64})
		if err != nil {
			return false
		}
		byHost := map[topo.NodeID]*Schedule{}
		for _, sch := range schs {
			byHost[sch.Host] = sch
		}
		for _, sch := range schs {
			for _, st := range sch.Steps {
				if st.WaitSrc == topo.None {
					continue
				}
				parent := byHost[st.WaitSrc]
				if parent == nil || st.WaitStep >= len(parent.Steps) {
					return false
				}
				if parent.Steps[st.WaitStep].Dst != sch.Host {
					return false
				}
			}
		}
		// Symbolic delivery: rank 0 has the data; repeatedly execute any
		// step whose gates are satisfied.
		has := map[topo.NodeID]bool{0: true}
		done := map[[2]int]bool{} // (rank, step)
		for changed := true; changed; {
			changed = false
			for _, sch := range schs {
				for si, st := range sch.Steps {
					key := [2]int{sch.Rank, si}
					if done[key] || !has[sch.Host] {
						continue
					}
					if si > 0 && !done[[2]int{sch.Rank, si - 1}] {
						continue
					}
					if st.WaitSrc != topo.None && !done[[2]int{int(st.WaitSrc), st.WaitStep}] {
						continue
					}
					done[key] = true
					has[st.Dst] = true
					changed = true
				}
			}
		}
		for r := 0; r < n; r++ {
			if !has[topo.NodeID(r)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastExecution(t *testing.T) {
	r := newRig(t, 8)
	run := runCollective(t, r, Spec{Op: Broadcast, Bytes: 64 * 1024})
	// Every host must end up holding the root's chunk.
	for _, h := range r.tp.Hosts() {
		if h == r.tp.Hosts()[0] {
			continue
		}
		if !run.state[h].chunks["C0"] {
			t.Fatalf("host %d never received the broadcast payload", h)
		}
	}
	// 8-rank binomial tree: 7 sends total.
	if got := len(run.Records()); got != 7 {
		t.Fatalf("records = %d, want 7", got)
	}
}

func TestAllToAllShape(t *testing.T) {
	schs, err := Decompose(Spec{Op: AllToAll, Ranks: mkRanks(4), Bytes: 4000})
	if err != nil {
		t.Fatal(err)
	}
	for _, sch := range schs {
		if len(sch.Steps) != 3 {
			t.Fatalf("rank %d: steps = %d, want 3", sch.Rank, len(sch.Steps))
		}
		seen := map[topo.NodeID]bool{}
		for _, st := range sch.Steps {
			if st.WaitSrc != topo.None {
				t.Fatalf("all-to-all has no data dependencies")
			}
			if st.Dst == sch.Host || seen[st.Dst] {
				t.Fatalf("rank %d targets %v", sch.Rank, st.Dst)
			}
			seen[st.Dst] = true
			if st.Bytes != 1000 {
				t.Fatalf("chunk = %d, want 1000", st.Bytes)
			}
		}
	}
}

func TestAllToAllExecution(t *testing.T) {
	r := newRig(t, 4)
	run := runCollective(t, r, Spec{Op: AllToAll, Bytes: 32 * 1024})
	// Every host must hold the chunk addressed to it from every peer.
	for di, dst := range r.tp.Hosts() {
		for si := range r.tp.Hosts() {
			if si == di {
				continue
			}
			label := fmt.Sprintf("A%d.%d", si, di)
			if !run.state[dst].chunks[label] {
				t.Fatalf("host %d missing %s: %v", dst, label, run.state[dst].chunks)
			}
		}
	}
}
