package analyzerd

import (
	"encoding/json"
	"reflect"
	"testing"
)

// parseMessageReference is ParseMessage as it was before the hand-written
// decoder: encoding/json into the same struct, then the same rules. It
// exists to be disagreed with — the router pre-checks with ParseMessage
// what a shard will parse again, and a WAL written by an older build must
// replay to the same state, so the two may differ on no input.
func parseMessageReference(line []byte) (*Message, error) {
	var msg Message
	if err := json.Unmarshal(line, &msg); err != nil {
		return nil, err
	}
	if err := validateMessage(&msg); err != nil {
		return nil, err
	}
	return &msg, nil
}

// reportLine is a sequenced telemetry report as a host client sends it.
const reportLine = `{"type":"report","report":{"at_ns":5,"triggered_by":{"src":1,"dst":2,"sport":7,"dport":8,"proto":17},` +
	`"flows":[{"switch":9,"port":1,"flow":{"src":1,"dst":2},"pkts":10,"bytes":1000,"wait":[{"flow":{"src":3,"dst":4},"n":7}]}],` +
	`"ports":[{"switch":9,"port":0,"queued_bytes":1,"queued_pkts":2,"avg_queued_bytes":3,"paused":true,"pause_count":4,"paused_for_ns":5,` +
	`"meter_in":[{"from":{"node":2,"port":1},"bytes":5}],"pfc_events":[{"at_ns":1,"pause":true,"upstream":{"node":2,"port":1},"downstream":9,"ingress":1,"cause":3}]}],` +
	`"ttl_drops":[{"switch":4,"n":2}],"hops_polled":3},"seq":7,"client":"h01"}`

// messageQuirks seeds FuzzParseMessage with the protocol's shapes and the
// places a decoder and encoding/json could part ways (internal/wire's
// quirk corpus has the full list; these are the ones a Message can show).
var messageQuirks = []string{
	`{"type":"cf","cf":{"src":1,"dst":2,"sport":7,"dport":8,"proto":17}}`,
	`{"type":"step","step":{"host":3,"step":1,"flow":{"src":3,"dst":4},"bytes":1048576,"start_ns":100,"end_ns":900}}`,
	`{"type":"report","report":{"at_ns":5,"triggered_by":{"src":1,"dst":2},"hops_polled":3}}`,
	`{"type":"report","report":{"at_ns":5,"triggered_by":{},"hops_polled":3,"ports_missed":2},"seq":7,"client":"h1"}`,
	reportLine,
	`{"type":"cf","cf":{},"step":{}}`, `{"type":"cf","cf":{},"seq":-1}`, `{"type":"bogus"}`, `{"type":"step"}`, `not json`, ``,
	`{"type":"dump"}`, `{"type":"dump","seq":1}`, `{"type":"remap","map":{"shards":3,"epoch":2}}`, `{"type":"resize","map":{"shards":2},"cf":{}}`,
	`{"type":"adopt","handoff":{"format":2,"map":{"shards":2},"from":1,"to":0,"messages":[{"client":"h2","seq":3,"type":"cf","cf":{"src":9}}],"acked":[{"client":"h2","seq":41}]}}`,
	`{"TYPE":"cf","type":"step","CF":{"SRC":1,"src":2}}`, `{"type":"cf","cf":{"src":1},"cf":{"dst":2}}`, `{"type":"cf","cf":{"src":1},"cf":null}`,
	`{"type":"step","step":null}`, `{"type":"step","step":{}}`, `{"type":"cf","cf":{"dst":1e2}}`, `{"type":"cf","cf":{"sport":65536}}`,
	`{"type":"cf","cf":{"proto":-1}}`, `{"type":"cf","cf":{"src"`, `{"type":"cf","cf":{}} x`, `{"type":"cf","cf":{}}` + "\n", `{"type":"cf","cf":{},"seq":9223372036854775808}`,
	`{"client":"h1","seq":1,"cf":{"proto":6,"src":1},"type":"cf"}`, `{"type" :"cf","cf":{}}`, `{"\u0074ype":"cf","cf":{}}`, `{"type":"cf","TYPE":"step","cf":{}}`,
	`{"types":"x","type":"cf","cf":{}}`, `{"type":"cf","type":"cf","cf":{"src":1},"cf":{"src":2}}`, `{"type"`, `{"type":"cf","step"`,
	`{"type":"cf","cf":{},"client":"h\u00e9\ud800"}`, "{\"type\":\"cf\",\"cf\":{},\"client\":\"\xff\"}", `{"type":"cf","cf":{},"x":[[1,{"y":null}],"\n"]}`, `null`,
}

// FuzzParseMessage hammers the single entry point for untrusted input,
// differentially: ParseMessage and parseMessageReference accept and refuse
// the same lines and return DeepEqual messages. On top of that, arbitrary
// bytes never panic, and any line that parses satisfies the protocol
// invariants (known type, the matching payload present and singular,
// non-negative sequence number) — the properties Server.handle and ingest
// rely on without re-checking.
func FuzzParseMessage(f *testing.F) {
	for _, q := range messageQuirks {
		f.Add([]byte(q))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		msg, err := ParseMessage(line)
		want, wantErr := parseMessageReference(line)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("accept/refuse mismatch on %q:\n ParseMessage: %v\n reference:    %v", line, err, wantErr)
		}
		if err != nil {
			if msg != nil {
				t.Fatal("error with non-nil message")
			}
			return
		}
		if !reflect.DeepEqual(msg, want) {
			t.Fatalf("value mismatch on %q:\n ParseMessage: %+v\n reference:    %+v", line, msg, want)
		}
		if msg.Seq < 0 {
			t.Fatalf("accepted negative seq %d", msg.Seq)
		}
		payloads := 0
		if msg.Step != nil {
			payloads++
		}
		if msg.Report != nil {
			payloads++
		}
		if msg.CF != nil {
			payloads++
		}
		switch msg.Type {
		case TypeStep, TypeReport, TypeCF:
			if payloads != 1 {
				t.Fatalf("accepted %s message with %d payloads", msg.Type, payloads)
			}
			// A validated message must ingest without error: the server relies
			// on ParseMessage as the only gate for untrusted input.
			s := &Server{}
			if err := s.ingest(sourcedFromMessage(msg)); err != nil {
				t.Fatalf("validated message rejected by ingest: %v", err)
			}
		case TypeDump:
			if payloads != 0 || msg.Seq != 0 {
				t.Fatalf("accepted %s message with %d payloads, seq %d", msg.Type, payloads, msg.Seq)
			}
		default:
			t.Fatalf("unknown type %q accepted", msg.Type)
		}
	})
}

// TestParseMessageMatchesReference runs the seed corpus through the same
// comparison on every `go test`, not only under -fuzz.
func TestParseMessageMatchesReference(t *testing.T) {
	for _, q := range messageQuirks {
		msg, err := ParseMessage([]byte(q))
		want, wantErr := parseMessageReference([]byte(q))
		if (err != nil) != (wantErr != nil) || !reflect.DeepEqual(msg, want) {
			t.Errorf("%q:\n ParseMessage: %+v, %v\n reference:    %+v, %v", q, msg, err, want, wantErr)
		}
	}
}

// TestParseMessageDoesNotAliasLine: the connection's bufio.Scanner reuses
// its buffer for the next line, so nothing ParseMessage returns may point
// into the line it was given.
func TestParseMessageDoesNotAliasLine(t *testing.T) {
	line := []byte(reportLine)
	msg, err := ParseMessage(line)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := parseMessageReference([]byte(reportLine))
	for i := range line {
		line[i] = 'X'
	}
	if msg.Client != "h01" || msg.Type != TypeReport || !reflect.DeepEqual(msg, want) {
		t.Fatalf("message changed with its input line: client %q, type %q", msg.Client, msg.Type)
	}
}

// TestParseMessageAllocs ratchets the per-message cost the router and the
// shard both pay, at the measured value: the decoder's cursor, the message,
// its report, the two strings and one backing array per list.
// (parseMessageReference takes 20 for the same line.)
func TestParseMessageAllocs(t *testing.T) {
	line := []byte(reportLine)
	const ceiling = 11
	got := testing.AllocsPerRun(200, func() {
		if _, err := ParseMessage(line); err != nil {
			t.Fatal(err)
		}
	})
	if got > ceiling {
		t.Errorf("ParseMessage: %.0f allocs per report line, ceiling %d", got, ceiling)
	}
}
