package analyzerd

import (
	"testing"
)

// FuzzParseMessage hammers the single entry point for untrusted input. The
// contract: arbitrary bytes never panic, and any line that parses
// successfully satisfies the protocol invariants (known type, the matching
// payload present and singular, non-negative sequence number) — the
// properties Server.handle and ingest rely on without re-checking.
func FuzzParseMessage(f *testing.F) {
	f.Add([]byte(`{"type":"cf","cf":{"src":1,"dst":2,"sport":7,"dport":8,"proto":17}}`))
	f.Add([]byte(`{"type":"step","step":{"host":3,"step":1,"flow":{"src":3,"dst":4},"bytes":1048576,"start_ns":100,"end_ns":900}}`))
	f.Add([]byte(`{"type":"report","report":{"at_ns":5,"triggered_by":{"src":1,"dst":2},"hops_polled":3}}`))
	f.Add([]byte(`{"type":"report","report":{"at_ns":5,"triggered_by":{},"hops_polled":3,"ports_missed":2},"seq":7,"client":"h1"}`))
	f.Add([]byte(`{"type":"cf","cf":{},"step":{}}`))
	f.Add([]byte(`{"type":"cf","cf":{},"seq":-1}`))
	f.Add([]byte(`{"type":"bogus"}`))
	f.Add([]byte(`{"type":"step"}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, line []byte) {
		msg, err := ParseMessage(line)
		if err != nil {
			if msg != nil {
				t.Fatal("error with non-nil message")
			}
			return
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
		if payloads != 1 {
			t.Fatalf("accepted message with %d payloads", payloads)
		}
		switch msg.Type {
		case TypeStep:
			if msg.Step == nil {
				t.Fatal("step without payload accepted")
			}
		case TypeReport:
			if msg.Report == nil {
				t.Fatal("report without payload accepted")
			}
		case TypeCF:
			if msg.CF == nil {
				t.Fatal("cf without payload accepted")
			}
		default:
			t.Fatalf("unknown type %q accepted", msg.Type)
		}
		// A validated message must ingest without error: the server relies
		// on ParseMessage as the only gate for untrusted input.
		s := &Server{}
		if err := s.ingest(sourcedFromMessage(msg)); err != nil {
			t.Fatalf("validated message rejected by ingest: %v", err)
		}
	})
}
