package wire

import (
	"fmt"
	"sort"
)

// HandoffFormat is the supported rebalance-handoff format version (2:
// ack highwaters travel as Acked []ClientAck, the shared state body).
const HandoffFormat = 2

// Handoff is the deterministic state-transfer unit of a live rebalance:
// the slice of one donor shard's state — the same Messages + Acked body
// a ShardState dumps and a Snapshot persists — that the new shard map
// assigns to one target shard. The router builds these from donor dumps,
// persists each as a file, and delivers them to the targets via the
// "adopt" verb. Map is the map being installed; its Epoch versions the
// handoff so a stale delivery is rejected loudly.
type Handoff struct {
	Format int      `json:"format"`
	Map    ShardMap `json:"map"`
	// From and To are the donor and target shard indexes under the old
	// and new maps respectively.
	From int `json:"from"`
	To   int `json:"to"`
	// Messages holds the moved clients' retained messages in canonical
	// (SortMessages) order.
	Messages []SourcedMessage `json:"messages,omitempty"`
	// Acked lists every moved client's ack highwater, sorted by client,
	// installed at the new owner as its dedup baseline. A moved client
	// appears here even when it has no retained messages (every
	// submission may have been rejected past the window), so the
	// baseline still transfers.
	Acked []ClientAck `json:"acked,omitempty"`
}

// Filename names the handoff's on-disk artifact; the triple is unique
// within one rebalance.
func (h *Handoff) Filename() string {
	return fmt.Sprintf("epoch-%d-from-%d-to-%d.json", h.Map.Epoch, h.From, h.To)
}

// BuildHandoffs slices a donor's dump into per-target handoffs under
// the new map. The result is deterministic: targets ascend, and within
// each handoff clients and messages are canonically sorted, so the
// serialized handoff bytes are a pure function of the donor state and
// the new map.
func BuildHandoffs(state *ShardState, newMap ShardMap) ([]*Handoff, error) {
	ring, err := NewHashRing(newMap)
	if err != nil {
		return nil, err
	}
	byTarget := map[int]*Handoff{}
	target := func(to int) *Handoff {
		h := byTarget[to]
		if h == nil {
			h = &Handoff{Format: HandoffFormat, Map: newMap, From: state.Shard, To: to}
			byTarget[to] = h
		}
		return h
	}
	for _, sm := range state.Messages {
		if to, moved := ring.Moved(sm.Client, state.Shard); moved {
			h := target(to)
			h.Messages = append(h.Messages, sm)
		}
	}
	for _, ack := range state.Acked {
		if to, moved := ring.Moved(ack.Client, state.Shard); moved {
			h := target(to)
			h.Acked = append(h.Acked, ack)
		}
	}
	out := make([]*Handoff, 0, len(byTarget))
	for _, h := range byTarget {
		SortMessages(h.Messages)
		SortClientAcks(h.Acked)
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].To < out[j].To })
	return out, nil
}

// DonorShards returns the old-map shards whose dumps a rebalance must
// slice into handoffs. The ring's virtual nodes are labeled by shard
// index alone, so two maps with the same Replicas share every surviving
// shard's points exactly: a pure shrink moves keys only FROM the
// removed shards, and a grow moves keys only TO the new ones. That
// makes a shrink's donor set just the removed tail; any other change
// (growth, replica change) must dump every old shard.
func DonorShards(old, next ShardMap) []int {
	if next.Shards < old.Shards && old.replicas() == next.replicas() {
		donors := make([]int, 0, old.Shards-next.Shards)
		for i := next.Shards; i < old.Shards; i++ {
			donors = append(donors, i)
		}
		return donors
	}
	donors := make([]int, old.Shards)
	for i := range donors {
		donors[i] = i
	}
	return donors
}
