package chaos

import (
	"reflect"
	"testing"
)

func TestWALFaultsDeterministic(t *testing.T) {
	a, b := NewWALFaults(7), NewWALFaults(7)
	for i := 0; i < 50; i++ {
		if ca, cb := a.CutPoint(1000), b.CutPoint(1000); ca != cb {
			t.Fatalf("draw %d: cut points diverge: %d vs %d", i, ca, cb)
		}
	}
	offA, bitA := a.FlipBit(512)
	offB, bitB := b.FlipBit(512)
	if offA != offB || bitA != bitB {
		t.Fatalf("flip coordinates diverge: (%d,%d) vs (%d,%d)", offA, bitA, offB, bitB)
	}
	pa, pb := a.CrashPoints(5, 100), b.CrashPoints(5, 100)
	if !reflect.DeepEqual(pa, pb) {
		t.Fatalf("crash points diverge: %v vs %v", pa, pb)
	}
	if pc := NewWALFaults(8).CrashPoints(5, 100); reflect.DeepEqual(pa, pc) {
		t.Fatalf("different seeds drew identical crash points: %v", pa)
	}
}

func TestWALFaultsBounds(t *testing.T) {
	w := NewWALFaults(3)
	for i := 0; i < 100; i++ {
		if c := w.CutPoint(64); c < 0 || c >= 64 {
			t.Fatalf("cut point %d out of [0,64)", c)
		}
		off, bit := w.FlipBit(64)
		if off < 0 || off >= 64 || bit > 7 {
			t.Fatalf("flip (%d,%d) out of range", off, bit)
		}
	}
	if c := w.CutPoint(0); c != 0 {
		t.Fatalf("cut of empty file = %d, want 0", c)
	}
	points := w.CrashPoints(10, 4)
	if len(points) != 4 {
		t.Fatalf("asked for 10 points over 4 messages, got %d", len(points))
	}
	last := 0
	for _, p := range points {
		if p < 1 || p > 4 {
			t.Fatalf("crash point %d out of [1,4]", p)
		}
		if p <= last {
			t.Fatalf("crash points not strictly ascending: %v", points)
		}
		last = p
	}
	if w.CrashPoints(0, 10) != nil || w.CrashPoints(3, 0) != nil {
		t.Fatal("degenerate crash point requests must return nil")
	}
}

func TestShardKillsCoverEveryShardOnce(t *testing.T) {
	a, b := NewWALFaults(11), NewWALFaults(11)
	pa, pb := a.ShardKills(4, 40), b.ShardKills(4, 40)
	if !reflect.DeepEqual(pa, pb) {
		t.Fatalf("same seed drew different kill plans: %v vs %v", pa, pb)
	}
	if len(pa) != 4 {
		t.Fatalf("plan has %d kills, want 4", len(pa))
	}
	seen := map[int]bool{}
	last := 0
	for _, k := range pa {
		if k.Shard < 0 || k.Shard >= 4 {
			t.Fatalf("kill targets shard %d outside [0,4)", k.Shard)
		}
		if seen[k.Shard] {
			t.Fatalf("shard %d killed twice: %v", k.Shard, pa)
		}
		seen[k.Shard] = true
		if k.AfterAcked < 1 || k.AfterAcked > 40 {
			t.Fatalf("kill point %d outside [1,40]", k.AfterAcked)
		}
		if k.AfterAcked <= last {
			t.Fatalf("kill points not strictly ascending: %v", pa)
		}
		last = k.AfterAcked
	}
	if pc := NewWALFaults(12).ShardKills(4, 40); reflect.DeepEqual(pa, pc) {
		t.Fatalf("different seeds drew identical kill plans: %v", pa)
	}
}

func TestBatchShardKillsLandMidBatch(t *testing.T) {
	sizes := []int{9, 1, 10, 9, 2, 10}
	owners := []int{0, 3, 1, 0, 2, 1}
	pa := NewWALFaults(11).BatchShardKills(sizes, owners)
	if pb := NewWALFaults(11).BatchShardKills(sizes, owners); !reflect.DeepEqual(pa, pb) {
		t.Fatalf("same seed drew different kill plans: %v vs %v", pa, pb)
	}
	// Shard 3 only ever gets a single message: no batch to die inside.
	if len(pa) != 3 {
		t.Fatalf("plan %v, want one kill each for shards 0, 1, 2", pa)
	}
	seen := map[int]bool{}
	last := 0
	for _, k := range pa {
		if seen[k.Shard] {
			t.Fatalf("shard %d killed twice: %v", k.Shard, pa)
		}
		seen[k.Shard] = true
		if k.AfterAcked <= last {
			t.Fatalf("kill points not strictly ascending: %v", pa)
		}
		last = k.AfterAcked
		start, inside := 0, false
		for i, size := range sizes {
			if owners[i] == k.Shard && k.AfterAcked > start && k.AfterAcked < start+size {
				inside = true
			}
			start += size
		}
		if !inside {
			t.Fatalf("kill %+v is not strictly inside a batch bound for shard %d", k, k.Shard)
		}
	}
	if seen[3] {
		t.Fatalf("shard 3 killed though it never has a batch in flight: %v", pa)
	}
}

func TestShardKillsDegenerate(t *testing.T) {
	w := NewWALFaults(5)
	if plan := w.ShardKills(0, 10); plan != nil {
		t.Fatalf("no shards should mean no plan, got %v", plan)
	}
	// Fewer messages than shards: a partial plan, still one kill per shard.
	plan := w.ShardKills(8, 3)
	if len(plan) != 3 {
		t.Fatalf("3 messages can host only 3 kills, got %d", len(plan))
	}
	seen := map[int]bool{}
	for _, k := range plan {
		if seen[k.Shard] {
			t.Fatalf("shard %d killed twice in partial plan %v", k.Shard, plan)
		}
		seen[k.Shard] = true
	}
}
