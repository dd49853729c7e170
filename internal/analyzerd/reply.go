package analyzerd

import "vedrfolnir/internal/wire"

// replyLine renders one reply, newline included. Every reply to a
// submission names the client next to the seq; wire.ReplyLine says why.
func replyLine(r wire.ReplyLine) []byte {
	return append(wire.AppendReply(make([]byte, 0, 96), &r), '\n')
}

// AckLine renders the acknowledgement of client's submission seq (>= 1).
func AckLine(seq int64, client string) []byte {
	return replyLine(wire.ReplyLine{Ack: seq, Client: client})
}

// NakLine renders a refusal. With seq > 0 it names the submission and the
// client; without, it is the bare {"error":…} a line that breaks the
// protocol gets. retry marks transient pressure: the client keeps the
// message and resubmits after backoff.
func NakLine(seq int64, client, reason string, retry bool) []byte {
	r := wire.ReplyLine{Error: reason, Retry: retry}
	if seq > 0 {
		r.Nak, r.Client = seq, client
	}
	return replyLine(r)
}
