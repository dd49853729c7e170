package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
)

// syntheticIDs returns 10k client names shaped like real fleet traffic
// (tenant prefix + host suffix) so movement bounds are measured on the
// key distribution the router actually hashes.
func syntheticIDs() []string {
	ids := make([]string, 10000)
	for i := range ids {
		ids[i] = fmt.Sprintf("tenant-%d/host-%04d", i%23, i)
	}
	return ids
}

func mustRing(t *testing.T, m ShardMap) *HashRing {
	t.Helper()
	r, err := NewHashRing(m)
	if err != nil {
		t.Fatalf("NewHashRing(%+v): %v", m, err)
	}
	return r
}

// TestHashRingGrowMovementBound is the consistent-hashing contract a
// live rebalance leans on: growing N→N+1 moves roughly 1/(N+1) of the
// keys (within 2× of ideal for 64 vnodes), and every moved key lands on
// the NEW shard — surviving shards share their ring points across the
// two maps, so they can only donate, never trade among themselves.
func TestHashRingGrowMovementBound(t *testing.T) {
	ids := syntheticIDs()
	for n := 2; n <= 8; n++ {
		old := mustRing(t, ShardMap{Shards: n})
		next := mustRing(t, ShardMap{Shards: n + 1})
		moved := 0
		for _, id := range ids {
			a, b := old.Owner(id), next.Owner(id)
			if a == b {
				continue
			}
			moved++
			if b != n {
				t.Fatalf("grow %d→%d moved %q from shard %d to %d; only the new shard %d may gain keys",
					n, n+1, id, a, b, n)
			}
		}
		ideal := len(ids) / (n + 1)
		if moved == 0 || moved > 2*ideal {
			t.Errorf("grow %d→%d moved %d of %d ids, want (0, %d] (ideal %d)",
				n, n+1, moved, len(ids), 2*ideal, ideal)
		}
	}
}

// TestHashRingShrinkMovementBound: shrink is the exact inverse — the
// moved set is precisely the removed shard's keys, nothing else.
func TestHashRingShrinkMovementBound(t *testing.T) {
	ids := syntheticIDs()
	for n := 3; n <= 9; n++ {
		old := mustRing(t, ShardMap{Shards: n})
		next := mustRing(t, ShardMap{Shards: n - 1})
		for _, id := range ids {
			a, b := old.Owner(id), next.Owner(id)
			if a == n-1 {
				if b == a {
					t.Fatalf("shrink %d→%d left %q on removed shard %d", n, n-1, id, a)
				}
			} else if b != a {
				t.Fatalf("shrink %d→%d moved %q from surviving shard %d to %d; only the removed shard donates",
					n, n-1, id, a, b)
			}
		}
	}
}

// TestHashRingAssignmentByteStable pins the assignment function itself:
// the checksum of 10k ownership decisions must never drift across
// replica counts, process restarts, or refactors of the hash — a drift
// would silently reassign every fleet's clients on upgrade.
func TestHashRingAssignmentByteStable(t *testing.T) {
	golden := []struct {
		m   ShardMap
		sum uint64
	}{
		{ShardMap{Shards: 4}, 0x01d0a5eac60bfc36},
		{ShardMap{Shards: 4, Replicas: 16}, 0x14fd4b606e01021a},
		{ShardMap{Shards: 7, Replicas: 128}, 0xe38af973dea79354},
	}
	for _, g := range golden {
		ring := mustRing(t, g.m)
		h := fnv.New64a()
		for _, id := range syntheticIDs() {
			fmt.Fprintf(h, "%s=%d;", id, ring.Owner(id))
		}
		if got := h.Sum64(); got != g.sum {
			t.Errorf("assignment checksum for %+v = %#016x, want %#016x (ownership drifted!)", g.m, got, g.sum)
		}
		// Epoch is versioning metadata only: it must not perturb the ring.
		withEpoch := g.m
		withEpoch.Epoch = 42
		ring2 := mustRing(t, withEpoch)
		for _, id := range []string{"h00", "tenant-1/host-0001", "x"} {
			if ring.Owner(id) != ring2.Owner(id) {
				t.Errorf("Owner(%q) differs across epochs of the same map", id)
			}
		}
	}
}

// TestDonorShards pins which dumps a rebalance must take: a pure shrink
// drains only the removed tail; growth and replica changes drain all.
func TestDonorShards(t *testing.T) {
	cases := []struct {
		old, next ShardMap
		want      []int
	}{
		{ShardMap{Shards: 2}, ShardMap{Shards: 3}, []int{0, 1}},
		{ShardMap{Shards: 4}, ShardMap{Shards: 2}, []int{2, 3}},
		{ShardMap{Shards: 3, Replicas: 64}, ShardMap{Shards: 2}, []int{2}},
		{ShardMap{Shards: 3, Replicas: 16}, ShardMap{Shards: 2, Replicas: 32}, []int{0, 1, 2}},
		{ShardMap{Shards: 3}, ShardMap{Shards: 3, Epoch: 1}, []int{0, 1, 2}},
	}
	for _, c := range cases {
		if got := DonorShards(c.old, c.next); !reflect.DeepEqual(got, c.want) {
			t.Errorf("DonorShards(%+v, %+v) = %v, want %v", c.old, c.next, got, c.want)
		}
	}
}

// TestBuildHandoffsDeterministic: the serialized handoff must be a pure
// function of the donor's message *set* and the new map, independent of
// the donor's local ingest order — the byte-identity story depends on
// the handoff file being reproducible from any incarnation of the
// donor.
func TestBuildHandoffsDeterministic(t *testing.T) {
	next := ShardMap{Shards: 3, Epoch: 1}
	ring := mustRing(t, next)
	step := StepRecord{Host: 1, Step: 2}
	var msgs []SourcedMessage
	var acked []ClientAck
	for i := 0; i < 40; i++ {
		c := fmt.Sprintf("h%02d", i)
		msgs = append(msgs, SourcedMessage{Client: c, Seq: 1, Type: MsgStep, Step: &step})
		acked = append(acked, ClientAck{Client: c, Seq: 2})
	}
	state := &ShardState{Format: ShardStateFormat, Shard: 0, Map: ShardMap{Shards: 2}, Messages: msgs, Acked: acked}
	hs, err := BuildHandoffs(state, next)
	if err != nil {
		t.Fatalf("BuildHandoffs: %v", err)
	}
	if len(hs) == 0 {
		t.Fatal("no handoffs built; expected shard 0 to donate to shards 1 and 2")
	}
	for _, h := range hs {
		if h.From != 0 || h.To == 0 || h.Map != next || h.Format != HandoffFormat {
			t.Errorf("handoff header %+v malformed", h)
		}
		for _, sm := range h.Messages {
			if ring.Owner(sm.Client) != h.To {
				t.Errorf("handoff to %d carries %q owned by %d", h.To, sm.Client, ring.Owner(sm.Client))
			}
		}
		for _, hc := range h.Acked {
			if hc.Seq != 2 {
				t.Errorf("client %q handed off with acked %d, want 2", hc.Client, hc.Seq)
			}
		}
		if want := fmt.Sprintf("epoch-1-from-0-to-%d.json", h.To); h.Filename() != want {
			t.Errorf("Filename() = %q, want %q", h.Filename(), want)
		}
	}

	// Reverse the donor's ingest order: identical bytes.
	rev := &ShardState{Format: ShardStateFormat, Shard: 0, Map: state.Map}
	for i := len(msgs) - 1; i >= 0; i-- {
		rev.Messages = append(rev.Messages, msgs[i])
	}
	for i := len(acked) - 1; i >= 0; i-- {
		rev.Acked = append(rev.Acked, acked[i])
	}
	hs2, err := BuildHandoffs(rev, next)
	if err != nil {
		t.Fatalf("BuildHandoffs(reversed): %v", err)
	}
	a, _ := json.Marshal(hs)
	b, _ := json.Marshal(hs2)
	if !bytes.Equal(a, b) {
		t.Errorf("handoff bytes depend on donor ingest order:\n%s\nvs\n%s", a, b)
	}
}

// TestBuildHandoffsSkipsUnnamed: unnamed messages have no hash key and
// must stay with the donor.
func TestBuildHandoffsSkipsUnnamed(t *testing.T) {
	step := StepRecord{Host: 1}
	state := &ShardState{
		Shard:    0,
		Map:      ShardMap{Shards: 1},
		Messages: []SourcedMessage{{Type: MsgStep, Step: &step}},
	}
	hs, err := BuildHandoffs(state, ShardMap{Shards: 2, Epoch: 1})
	if err != nil {
		t.Fatalf("BuildHandoffs: %v", err)
	}
	for _, h := range hs {
		if len(h.Messages) != 0 {
			t.Errorf("unnamed message moved in handoff %+v", h)
		}
	}
}
