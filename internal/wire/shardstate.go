package wire

import "sort"

// Message type tags shared by the analyzer wire protocol and shard
// states. internal/analyzerd's TypeStep/TypeReport/TypeCF carry
// the same values; they live here too so shard-state consumers don't
// need the daemon package.
const (
	MsgStep   = "step"
	MsgReport = "report"
	MsgCF     = "cf"
)

// SourcedMessage is one accepted ingest message with its provenance:
// which client submitted it and at which sequence number. The stream of
// these, in ingest order, is the only ingest state an analyzer daemon
// retains: it diagnoses by folding the stream (FoldMessages), and a fleet
// drain can merge any subset of shard states into one deterministic
// bundle — (client, seq) is stable across shard crashes and
// resubmission, which is what makes the merged diagnosis byte-identical
// to an unbroken run.
type SourcedMessage struct {
	Client string      `json:"client,omitempty"`
	Seq    int64       `json:"seq,omitempty"`
	Type   string      `json:"type"`
	Step   *StepRecord `json:"step,omitempty"`
	Report *Report     `json:"report,omitempty"`
	CF     *Flow       `json:"cf,omitempty"`
}

// ShardStateFormat and ShardState.Format version nothing (a shard state is
// never encoded); the frozen benchmark/ sets them. ROADMAP item 10 drops both.
const ShardStateFormat = 1

// ShardState is one shard daemon's complete accepted-message set, as a
// fleet drain rebuilds it from the shard's directory
// (analyzerd.RecoverShard): the same Messages + Acked body a Snapshot
// persists, with the shard's position in the fleet. It is never sent or
// written; the snapshot and the WAL are its durable form.
type ShardState struct {
	Format int
	// Shard is this daemon's index in [0, Map.Shards).
	Shard int
	// Map is the shard map the daemon was running under.
	Map ShardMap
	// Messages holds every accepted message in local ingest order.
	Messages []SourcedMessage
	// Acked carries each client's acknowledged-sequence highwater,
	// sorted by client: the true highwater, not the max retained message
	// seq, because a permanently rejected submission advances the window
	// without leaving a message behind. Merging ignores this field.
	Acked []ClientAck
}

// MergeStats describes what MergeShardStates folded together.
type MergeStats struct {
	// Shards is the number of shard states merged.
	Shards int
	// Messages is the total message count across all inputs.
	Messages int
	// Duplicates counts messages dropped because another copy with the
	// same (client, seq) identity was already merged.
	Duplicates int
	// DupCFs counts collective-flow registrations dropped because the
	// same flow was already announced (possibly by another client).
	DupCFs int
	// Records, Reports, and CFs are the unique counts in the merged
	// bundle.
	Records int
	Reports int
	CFs     int
}

// SortMessages puts msgs in canonical order: by (client, seq, type,
// serialized payload), the payload serialized only to break a tie (a
// resubmitted duplicate). It is the order the fleet merge uses, so the
// merged bytes are a pure function of the message *set*, not of any
// shard's ingest order.
func SortMessages(msgs []SourcedMessage) {
	sort.Slice(msgs, func(i, j int) bool {
		a, b := &msgs[i], &msgs[j]
		if a.Client != b.Client {
			return a.Client < b.Client
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		return string(sourcedMessageCodec.encode(nil, a)) < string(sourcedMessageCodec.encode(nil, b))
	})
}

// FoldMessages reduces a message stream to the analyzer's input, in the
// order given: a repeated (client, seq) identity counts once, records and
// reports keep their order, and the collective flows collapse to a sorted
// set. A daemon folds its stream in ingest order to diagnose it; the
// fleet merge folds the canonically sorted union of its shards' streams.
func FoldMessages(msgs []SourcedMessage) (*Bundle, MergeStats) {
	stats := MergeStats{Messages: len(msgs)}
	bundle := &Bundle{}
	type identity struct {
		client string
		seq    int64
	}
	seen := map[identity]bool{}
	cfSeen := map[Flow]bool{}
	for _, sm := range msgs {
		if sm.Client != "" && sm.Seq > 0 {
			id := identity{client: sm.Client, seq: sm.Seq}
			if seen[id] {
				stats.Duplicates++
				continue
			}
			seen[id] = true
		}
		switch {
		case sm.Type == MsgStep && sm.Step != nil:
			bundle.Records = append(bundle.Records, *sm.Step)
		case sm.Type == MsgReport && sm.Report != nil:
			bundle.Reports = append(bundle.Reports, *sm.Report)
		case sm.Type == MsgCF && sm.CF != nil:
			if cfSeen[*sm.CF] {
				stats.DupCFs++
				continue
			}
			cfSeen[*sm.CF] = true
			bundle.CFs = append(bundle.CFs, *sm.CF)
		}
	}
	SortFlows(bundle.CFs)
	stats.Records = len(bundle.Records)
	stats.Reports = len(bundle.Reports)
	stats.CFs = len(bundle.CFs)
	return bundle, stats
}

// MergeShardStates merges any number of shard states into one bundle in
// canonical order (SortMessages, then FoldMessages), so the result is
// byte-identical no matter how the fleet was sharded, how often shards
// crashed and replayed their WALs, or in which order the states were
// gathered.
func MergeShardStates(states []*ShardState) (*Bundle, MergeStats) {
	var msgs []SourcedMessage
	for _, st := range states {
		if st != nil {
			msgs = append(msgs, st.Messages...)
		}
	}
	SortMessages(msgs)
	bundle, stats := FoldMessages(msgs)
	stats.Shards = len(states)
	return bundle, stats
}
