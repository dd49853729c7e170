package wire

import (
	"bytes"
	"encoding/json"
	"testing"
)

// The fuzzers over the service tier's DTOs are differential: every input
// goes through the decoder in decode.go and through encoding/json (the
// helpers in decode_test.go), which must agree on accept/refuse and on the
// decoded value, before the target's own property is checked. Each starts
// from the quirk corpus plus documents of its own type.
func seed(f *testing.F, docs ...string) {
	for _, q := range append(docs, quirks...) {
		f.Add([]byte(q))
	}
}

// FuzzReportRoundTrip: an arbitrary JSON report that decodes must
// convert to the internal telemetry form and back without panicking, and
// the DTO→internal→DTO conversion must be a fixed point after one
// normalization pass (FromReport sorts the map-derived lists, so a second
// pass must be byte-stable — the property journal resume and the
// determinism tests depend on).
func FuzzReportRoundTrip(f *testing.F) {
	seed(f,
		`{"at_ns":5,"triggered_by":{"src":1,"dst":2,"sport":7,"dport":8,"proto":17},"hops_polled":3}`,
		`{"at_ns":5,"triggered_by":{},"ports_missed":2,"flows":[{"switch":9,"port":1,"flow":{"src":1,"dst":2},"pkts":10,"bytes":1000,"wait":[{"flow":{"src":3,"dst":4},"n":7}]}]}`,
		`{"ports":[{"switch":9,"port":0,"queued_bytes":1,"paused":true,"meter_in":[{"from":{"node":2,"port":1},"bytes":5}],"pfc_events":[{"at_ns":1,"pause":true,"upstream":{"node":2,"port":1},"downstream":9,"ingress":1,"cause":3}]}]}`,
		`{"ttl_drops":[{"switch":4,"n":2},{"switch":3,"n":1}]}`)
	f.Fuzz(func(t *testing.T, data []byte) {
		dto, ok := differ(t, data, reportCodec)
		if !ok {
			return
		}
		// First pass normalizes (duplicate map keys collapse, lists sort).
		norm := FromReport(dto.Telemetry())
		a, err := json.Marshal(norm)
		if err != nil {
			t.Fatalf("marshal after round trip: %v", err)
		}
		// Second pass must be the identity.
		again := FromReport(norm.Telemetry())
		b, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("marshal after second round trip: %v", err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("report round trip not stable:\n%s\nvs\n%s", a, b)
		}
	})
}

// FuzzStepRecordRoundTrip: the step-record DTO is flat, so the round trip
// must be exactly lossless, not just stable.
func FuzzStepRecordRoundTrip(f *testing.F) {
	seed(f, `{"host":3,"step":1,"flow":{"src":3,"dst":4,"sport":1,"dport":2,"proto":17},"bytes":1048576,"start_ns":100,"end_ns":900,"wait_src":2,"wait_step":0,"bound_by_wait":true}`)
	f.Fuzz(func(t *testing.T, data []byte) {
		dto, ok := differ(t, data, stepRecordCodec)
		if !ok {
			return
		}
		if got := FromStepRecord(dto.Record()); got != dto {
			t.Fatalf("step record round trip lost data:\n%+v\nvs\n%+v", got, dto)
		}
	})
}

// stateBody is the Messages + Acked pair a Snapshot and a ShardState both
// carry; the fuzzers below check it through both headers.
const stateBody = `"messages":[{"client":"h2","seq":3,"type":"cf","cf":{"src":9,"dst":1}},` +
	`{"client":"h1","seq":9,"type":"step","step":{"host":3,"step":1,"flow":{"src":3,"dst":4,"sport":1,"dport":2,"proto":17},"bytes":1048576,"start_ns":100,"end_ns":900}},` +
	`{"type":"report","report":{"at_ns":5,"triggered_by":{"src":1,"dst":2},"hops_polled":3}}],` +
	`"acked":[{"client":"h2","seq":41},{"client":"h1","seq":9}]`

// fuzzBodyRoundTrip is the shared property: an arbitrary JSON state
// artifact must survive a decode → normalize (canonical message order,
// acks by client) → marshal cycle stably — the second pass is the
// identity. Recovery equality depends on this: a snapshot written, read
// back, and written again must be byte-identical. decode is the
// artifact's differential decode (differ over its codec, or differDump).
func fuzzBodyRoundTrip[T any](t *testing.T, data []byte, decode func(*testing.T, []byte) (T, bool), body func(*T) (*[]SourcedMessage, *[]ClientAck)) {
	pass := func(in []byte) ([]byte, bool) {
		v, ok := decode(t, in)
		if !ok {
			return nil, false
		}
		msgs, acked := body(&v)
		for _, sm := range *msgs {
			if sm.Report != nil { // map-derived lists sort, so the payload tiebreak is stable
				*sm.Report = FromReport(sm.Report.Telemetry())
			}
		}
		SortMessages(*msgs)
		SortClientAcks(*acked)
		out, err := json.Marshal(&v)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return out, true
	}
	a, ok := pass(data)
	if !ok {
		return
	}
	b, ok := pass(a)
	if !ok {
		t.Fatalf("decode of own output failed:\n%s", a)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("round trip not stable:\n%s\nvs\n%s", a, b)
	}
}

// FuzzSnapshotRoundTrip: the on-disk snapshot (format 2).
func FuzzSnapshotRoundTrip(f *testing.F) {
	seed(f,
		`{"format":2,"next_lsn":7,`+stateBody+`}`,
		`{"format":2,"messages":[{"type":"cf","cf":{"src":2,"dst":3,"proto":6}}]}`)
	f.Fuzz(func(t *testing.T, data []byte) {
		decode := func(t *testing.T, in []byte) (Snapshot, bool) { return differ(t, in, snapshotCodec) }
		fuzzBodyRoundTrip(t, data, decode, func(s *Snapshot) (*[]SourcedMessage, *[]ClientAck) { return &s.Messages, &s.Acked })
	})
}

// FuzzHandoffRoundTrip: the state a shard hands to the aggregator in its
// dump reply. With a static shard map this is the one artifact that
// carries a shard's Messages + Acked body out of its process, under the
// shard-map header, and the merge depends on it reading back as written.
func FuzzHandoffRoundTrip(f *testing.F) {
	seed(f,
		`{"format":1,"shard":2,"map":{"shards":3},`+stateBody+`}`,
		`{"format":1,"shard":1,"map":{"shards":2,"replicas":8}}`)
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzBodyRoundTrip(t, data, differDump, func(s *ShardState) (*[]SourcedMessage, *[]ClientAck) { return &s.Messages, &s.Acked })
	})
}

// FuzzShardStateDecode: a shard's reply to the dump verb — a state, an
// {"error": …} line, or anything a broken shard might send — decodes in
// one pass to what the two encoding/json passes it replaced produced. The
// same bytes read as an ingest reply, by the router and by a client, decode
// as encoding/json reads them into each reader's fields.
func FuzzShardStateDecode(f *testing.F) {
	seed(f,
		`{"format":1,"shard":1,"map":{"shards":2,"epoch":4},`+stateBody+`}`,
		`{"error":"dump: not a shard"}`,
		`{"nak":4,"client":"h2","error":"overloaded","retry":true}`)
	f.Fuzz(func(t *testing.T, data []byte) {
		differDump(t, data)
		differ(t, data, shardReplyCodec)
		differ(t, data, replyCodec)
	})
}

// FuzzReadBundle: both bundle entry points against their references —
// ReadBundle against json.Decoder.Decode (first value, the rest ignored),
// DecodeBundle against json.Unmarshal (one value, then only whitespace).
func FuzzReadBundle(f *testing.F) {
	seed(f,
		`{"records":[{"host":3,"step":1,"flow":{"src":3,"dst":4,"sport":1,"dport":2,"proto":17},"bytes":1048576,"start_ns":100,"end_ns":900}],"reports":[{"at_ns":5,"triggered_by":{"src":1,"dst":2},"hops_polled":3}],"cfs":[{"src":3,"dst":4}],"metrics":{"sim.events":12}}`,
		`{"records":null,"reports":[],"cfs":[]} {"records":[{}]}`)
	f.Fuzz(func(t *testing.T, data []byte) {
		differBundleStream(t, data)
		differ(t, data, bundleCodec)
	})
}

// FuzzShardMapDecode: an arbitrary JSON shard map either fails ring
// construction with an error or yields a ring whose ownership function
// is total (every key lands in [0, Shards)), and the map's JSON round
// trip is stable. A dump reply carries a map from another process, so
// this is an input-validation surface, not just a DTO.
func FuzzShardMapDecode(f *testing.F) {
	seed(f, `{"shards":3}`, `{"shards":4,"replicas":16,"epoch":7}`, `{"shards":-1}`, `{"shards":0,"replicas":-5}`)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, ok := differ(t, data, shardMapCodec)
		if !ok {
			return
		}
		a, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if m2, ok := differ(t, a, shardMapCodec); !ok || m2 != m {
			t.Fatalf("shard map round trip lost data: %+v vs %+v", m2, m)
		}
		ring, err := NewHashRing(m)
		if err != nil {
			return // invalid maps must be rejected, not built
		}
		// Cap the work: enormous replica counts are legal but slow to
		// exercise per fuzz iteration.
		if m.Shards > 1024 || m.Replicas > 1024 {
			return
		}
		for _, key := range []string{"", "h00", string(data)} {
			if o := ring.Owner(key); o < 0 || o >= m.Shards {
				t.Fatalf("Owner(%q) = %d, outside [0, %d)", key, o, m.Shards)
			}
		}
	})
}

// FuzzSweepRecordRoundTrip: journal records (including the chaos-grid
// fields) survive resultFromWire-style JSON cycles stably.
func FuzzSweepRecordRoundTrip(f *testing.F) {
	f.Add([]byte(`{"key":"flow-contention/vedrfolnir/s4/loss=0.01","kind":"flow-contention","seed":4,"system":"vedrfolnir","params":{"chaos_loss":0.01},"outcome":"TP","completed":true,"confidence":0.875}`))
	f.Add([]byte(`{"key":"incast/vedrfolnir/s0","err":"timed out after 30s (job abandoned)"}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec SweepRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return
		}
		a, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var rec2 SweepRecord
		if err := json.Unmarshal(a, &rec2); err != nil {
			t.Fatalf("re-unmarshal of own output: %v", err)
		}
		b, err := json.Marshal(rec2)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("sweep record round trip not stable:\n%s\nvs\n%s", a, b)
		}
	})
}
