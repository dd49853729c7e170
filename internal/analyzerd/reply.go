package analyzerd

import (
	"encoding/json"
	"strconv"
)

// Reply lines. Every reply to a sequenced submission from a named client
// echoes the client id next to the seq — {"ack":7,"client":"h03"} — because
// replies on one connection are not FIFO (duplicate-acks and NAKs are
// written by the connection handler, acks by the applier), and a fleet
// router multiplexing many clients onto one shard link can only hand a
// reply back to its submitter by matching (client, seq). ReliableClient
// ignores the field. Strings are JSON-escaped, not Go-quoted: a client id
// or error text may carry quotes or non-ASCII bytes.

// appendJSONString appends s as a JSON string literal. Plain printable
// ASCII — every host id and error text the daemon itself produces — is
// quoted in place; anything else goes through encoding/json.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' {
			q, err := json.Marshal(s)
			if err != nil {
				q = []byte(`""`) // a string cannot fail to marshal
			}
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendSeqHead opens a sequenced reply: {"<verb>":seq[,"client":"id"].
func appendSeqHead(b []byte, verb string, seq int64, client string) []byte {
	b = append(b, `{"`...)
	b = append(b, verb...)
	b = append(b, `":`...)
	b = strconv.AppendInt(b, seq, 10)
	if client != "" {
		b = append(b, `,"client":`...)
		b = appendJSONString(b, client)
	}
	return b
}

// appendNakHead opens a refusal up to where its fields begin:
// {"nak":seq,"client":"id", for a sequenced line, a bare { otherwise.
func appendNakHead(b []byte, seq int64, client string) []byte {
	if seq <= 0 {
		return append(b, '{')
	}
	return append(appendSeqHead(b, "nak", seq, client), ',')
}

// AckLine renders the acknowledgement of client's submission seq.
func AckLine(seq int64, client string) []byte {
	return append(appendSeqHead(make([]byte, 0, 48), "ack", seq, client), "}\n"...)
}

// NakLine renders a refusal. With seq > 0 it names the submission (and the
// client, when there is one); without, it is the bare {"error":…} form an
// unsequenced line gets. retry marks transient pressure: the client keeps
// the message and resubmits after backoff instead of dropping it.
func NakLine(seq int64, client, reason string, retry bool) []byte {
	b := appendNakHead(make([]byte, 0, 96), seq, client)
	b = append(b, `"error":`...)
	b = appendJSONString(b, reason)
	if retry {
		b = append(b, `,"retry":true`...)
	}
	return append(b, "}\n"...)
}
