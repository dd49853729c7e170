package wire

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func TestHashRingDeterministicAndCovering(t *testing.T) {
	m := ShardMap{Shards: 4}
	a, err := NewHashRing(m)
	if err != nil {
		t.Fatalf("NewHashRing: %v", err)
	}
	b, err := NewHashRing(m)
	if err != nil {
		t.Fatalf("NewHashRing: %v", err)
	}
	hit := make([]int, m.Shards)
	for i := 0; i < 256; i++ {
		key := fmt.Sprintf("h%03d", i)
		own := a.Owner(key)
		if own < 0 || own >= m.Shards {
			t.Fatalf("Owner(%q) = %d out of range", key, own)
		}
		if got := b.Owner(key); got != own {
			t.Fatalf("rings disagree on %q: %d vs %d", key, own, got)
		}
		hit[own]++
	}
	for s, n := range hit {
		if n == 0 {
			t.Errorf("shard %d owns none of 256 keys — ring badly unbalanced", s)
		}
	}
}

func TestHashRingRejectsBadMaps(t *testing.T) {
	if _, err := NewHashRing(ShardMap{Shards: 0}); err == nil {
		t.Error("expected error for zero shards")
	}
	if _, err := NewHashRing(ShardMap{Shards: 2, Replicas: -1}); err == nil {
		t.Error("expected error for negative replicas")
	}
}

// shardTestMessages builds a small sourced stream across three clients.
func shardTestMessages() []SourcedMessage {
	var msgs []SourcedMessage
	for c := 0; c < 3; c++ {
		client := fmt.Sprintf("h%02d", c)
		seq := int64(0)
		for i := 0; i < 4; i++ {
			seq++
			f := Flow{Src: int32(c), Dst: int32(c + 1), SrcPort: uint16(i), DstPort: 7, Proto: 17}
			msgs = append(msgs, SourcedMessage{Client: client, Seq: seq, Type: MsgCF, CF: &f})
			seq++
			rec := StepRecord{Host: int32(c), Step: i, Flow: f, Bytes: 1 << 20}
			msgs = append(msgs, SourcedMessage{Client: client, Seq: seq, Type: MsgStep, Step: &rec})
		}
	}
	return msgs
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

func TestMergeShardStatesPartitionInvariant(t *testing.T) {
	msgs := shardTestMessages()

	// One big shard vs. per-client shards vs. an interleaved split with a
	// duplicated message — all must merge to the same bundle.
	whole := []*ShardState{{Format: ShardStateFormat, Messages: msgs}}
	var perClient []*ShardState
	byClient := map[string][]SourcedMessage{}
	for _, m := range msgs {
		byClient[m.Client] = append(byClient[m.Client], m)
	}
	for c := 0; c < 3; c++ {
		client := fmt.Sprintf("h%02d", c)
		perClient = append(perClient, &ShardState{Format: ShardStateFormat, Shard: c, Messages: byClient[client]})
	}
	split := []*ShardState{
		{Messages: append(append([]SourcedMessage{}, msgs[6:]...), msgs[3])}, // dup of msgs[3]
		{Messages: msgs[:6]},
		nil,
	}

	wantBundle, wantStats := MergeShardStates(whole)
	want := mustJSON(t, wantBundle)
	if wantStats.Duplicates != 0 || wantStats.Records != 12 || wantStats.CFs != 12 {
		t.Fatalf("unexpected whole-merge stats: %+v", wantStats)
	}
	if got, _ := MergeShardStates(perClient); mustJSON(t, got) != want {
		t.Errorf("per-client merge differs:\n got %s\nwant %s", mustJSON(t, got), want)
	}
	gotSplit, splitStats := MergeShardStates(split)
	if mustJSON(t, gotSplit) != want {
		t.Errorf("split merge differs:\n got %s\nwant %s", mustJSON(t, gotSplit), want)
	}
	if splitStats.Duplicates != 1 {
		t.Errorf("split merge Duplicates = %d, want 1", splitStats.Duplicates)
	}
}

func TestMergeShardStatesDedupesCFs(t *testing.T) {
	f := Flow{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: 17}
	states := []*ShardState{
		{Messages: []SourcedMessage{{Client: "a", Seq: 1, Type: MsgCF, CF: &f}}},
		{Messages: []SourcedMessage{{Client: "b", Seq: 1, Type: MsgCF, CF: &f}}},
	}
	b, stats := MergeShardStates(states)
	if len(b.CFs) != 1 || stats.DupCFs != 1 {
		t.Errorf("got %d cfs, DupCFs=%d; want 1 cf, 1 dup", len(b.CFs), stats.DupCFs)
	}
}

func TestMergeShardStatesUnsequencedDeterministic(t *testing.T) {
	r1 := StepRecord{Host: 1, Step: 0}
	r2 := StepRecord{Host: 2, Step: 0}
	a := []*ShardState{{Messages: []SourcedMessage{
		{Type: MsgStep, Step: &r1}, {Type: MsgStep, Step: &r2},
	}}}
	b := []*ShardState{{Messages: []SourcedMessage{
		{Type: MsgStep, Step: &r2}, {Type: MsgStep, Step: &r1},
	}}}
	ba, _ := MergeShardStates(a)
	bb, _ := MergeShardStates(b)
	if mustJSON(t, ba) != mustJSON(t, bb) {
		t.Errorf("unsequenced merge order depends on input order:\n%s\n%s", mustJSON(t, ba), mustJSON(t, bb))
	}
}

// TestSortMessagesLazyTiebreakKeepsOrder: serializing the payload only
// where (client, seq, type) tie yields the order that serializing every
// message up front did — on a shuffled stream where sequenced messages,
// unsequenced ones and resubmitted duplicates all occur.
func TestSortMessagesLazyTiebreakKeepsOrder(t *testing.T) {
	msgs := shardTestMessages()
	for i := 0; i < 6; i++ {
		rec := StepRecord{Host: int32(i % 3), Step: i / 3}
		msgs = append(msgs, SourcedMessage{Type: MsgStep, Step: &rec}, msgs[i])
	}
	want := append([]SourcedMessage{}, msgs...)
	sort.Slice(want, func(i, j int) bool { // the eager order: every key serialized
		key := func(sm SourcedMessage) string {
			return fmt.Sprintf("%s\x00%020d\x00%s\x00%s", sm.Client, sm.Seq, sm.Type, mustJSON(t, sm))
		}
		return key(want[i]) < key(want[j])
	})
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 20; round++ {
		rng.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })
		got := append([]SourcedMessage{}, msgs...)
		SortMessages(got)
		if mustJSON(t, got) != mustJSON(t, want) {
			t.Fatalf("round %d: order differs:\n got %s\nwant %s", round, mustJSON(t, got), mustJSON(t, want))
		}
	}
}
