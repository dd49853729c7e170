package wire

// Message is one line of the monitor→analyzer protocol. Exactly one payload
// field is set, selected by Type. An ingest line (step, report, cf) names
// its Client and numbers it with Seq, per client and strictly increasing
// from 1, and gets an {"ack":seq,"client":…} reply and duplicate
// suppression on resubmission. The struct
// lives here so the one decoder covers it; internal/analyzerd, which owns
// the protocol's rules (ParseMessage), aliases it.
type Message struct {
	Type   string      `json:"type"` // "step" | "report" | "cf"
	Step   *StepRecord `json:"step,omitempty"`
	Report *Report     `json:"report,omitempty"`
	CF     *Flow       `json:"cf,omitempty"`
	Seq    int64       `json:"seq,omitempty"`
	Client string      `json:"client,omitempty"`
}

// Reply is what a ReliableClient reads of a reply line: an ack, a NAK
// (retryable, or moved to another shard, at Addr when the router placed
// the client) or an unsequenced error.
type Reply struct {
	Ack   int64  `json:"ack"`
	Nak   int64  `json:"nak"`
	Error string `json:"error"`
	Retry bool   `json:"retry"`
	Moved bool   `json:"moved"`
	Addr  string `json:"addr"`
}

// ReplyLine is every reply a daemon or router writes: an ack, a NAK
// (retryable, or moved to Owner under Map) or an unsequenced error. A
// router's moved NAK is a placement: Addr is where the owning shard
// listens. A reply names the client, though no reader keeps that field.
// Only written: Reply is what a reader keeps of it.
type ReplyLine struct {
	Ack    int64     `json:"ack,omitempty"`
	Nak    int64     `json:"nak,omitempty"`
	Client string    `json:"client,omitempty"`
	Moved  bool      `json:"moved,omitempty"`
	Owner  *int      `json:"owner,omitempty"`
	Map    *ShardMap `json:"map,omitempty"`
	Addr   string    `json:"addr,omitempty"`
	Error  string    `json:"error,omitempty"`
	Retry  bool      `json:"retry,omitempty"`
}
