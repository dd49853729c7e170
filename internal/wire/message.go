package wire

// Message is one line of the monitor→analyzer protocol. Exactly one payload
// field is set, selected by Type. Seq and Client are optional: a client
// that numbers its messages (per-client, strictly increasing from 1) gets
// an {"ack":seq} reply per ingested message and duplicate suppression on
// resubmission; unnumbered messages keep the original fire-and-forget
// behaviour. The struct lives here so the one decoder covers it;
// internal/analyzerd, which owns the protocol's rules, aliases it.
type Message struct {
	Type   string      `json:"type"` // "step" | "report" | "cf" | "dump"
	Step   *StepRecord `json:"step,omitempty"`
	Report *Report     `json:"report,omitempty"`
	CF     *Flow       `json:"cf,omitempty"`
	Seq    int64       `json:"seq,omitempty"`
	Client string      `json:"client,omitempty"`
}
