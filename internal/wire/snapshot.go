package wire

// ClientAck is one client's acknowledged-sequence highwater — the dedup
// state that lets a restarted analyzer suppress resubmissions of messages
// it had already made durable before the crash.
type ClientAck struct {
	Client string `json:"client"`
	Seq    int64  `json:"seq"`
}

// SnapshotFormat is the supported snapshot format version. Format 1 held
// derived records/reports/cfs (standalone) or messages (shard); a format-1
// file is refused, never read as an empty state.
const SnapshotFormat = 2

// Snapshot is the analyzer daemon's complete ingest state on disk: the
// Messages in ingest order plus the Acked highwaters (the body a
// ShardState holds in memory), under a header that says which
// write-ahead-log entries it already covers. A snapshot
// plus the log entries at or after NextLSN reconstructs a byte-identical
// Diagnose(): ingest order is kept because the analyzer's flow→step index
// is last-write-wins over it.
type Snapshot struct {
	Format   int              `json:"format"`
	NextLSN  uint64           `json:"next_lsn"`
	Messages []SourcedMessage `json:"messages,omitempty"`
	Acked    []ClientAck      `json:"acked,omitempty"`
}

// SortFlows sorts flows in canonical (src, dst, sport, dport, proto)
// order, for deterministic serialization of flow sets.
func SortFlows(s []Flow) { sortSlice(s, flowLess) }
