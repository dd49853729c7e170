package wire

// Message is one line of the monitor→analyzer protocol. Exactly one payload
// field is set, selected by Type. An ingest line (step, report, cf) names
// its Client and numbers it with Seq, per client and strictly increasing
// from 1, and gets an {"ack":seq,"client":…} reply and duplicate
// suppression on resubmission; a dump line carries neither. The struct
// lives here so the one decoder covers it; internal/analyzerd, which owns
// the protocol's rules (ParseMessage), aliases it.
type Message struct {
	Type   string      `json:"type"` // "step" | "report" | "cf" | "dump"
	Step   *StepRecord `json:"step,omitempty"`
	Report *Report     `json:"report,omitempty"`
	CF     *Flow       `json:"cf,omitempty"`
	Seq    int64       `json:"seq,omitempty"`
	Client string      `json:"client,omitempty"`
}

// Reply is what a ReliableClient reads of a reply line: an ack, a NAK
// (retryable, or moved to another shard) or an unsequenced error.
type Reply struct {
	Ack   int64  `json:"ack"`
	Nak   int64  `json:"nak"`
	Error string `json:"error"`
	Retry bool   `json:"retry"`
	Moved bool   `json:"moved"`
}

// ShardReply is what a fleet router reads of a shard's reply: enough to
// tally an ack. Keys it does not name, "error" included, are skipped
// whatever their value.
type ShardReply struct {
	Ack    int64  `json:"ack"`
	Nak    int64  `json:"nak"`
	Client string `json:"client"`
}

// ReplyLine is every reply a daemon or router writes: an ack, a NAK
// (retryable, or moved to Owner under Map) or an unsequenced error. It
// names the client, because a router tallies each ack by (client, seq).
// Only written: Reply and ShardReply are what readers keep of it.
type ReplyLine struct {
	Ack    int64     `json:"ack,omitempty"`
	Nak    int64     `json:"nak,omitempty"`
	Client string    `json:"client,omitempty"`
	Moved  bool      `json:"moved,omitempty"`
	Owner  *int      `json:"owner,omitempty"`
	Map    *ShardMap `json:"map,omitempty"`
	Error  string    `json:"error,omitempty"`
	Retry  bool      `json:"retry,omitempty"`
}
