package wire

import (
	"bytes"
	"encoding/json"
	"testing"
)

// encoding/json is the reference for encode.go too: for every value the
// decoder can produce, each table's encode writes json.Marshal's bytes.

// marshalsAs fails the test unless got is json.Marshal(v).
func marshalsAs(t *testing.T, data []byte, got []byte, v any) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json.Marshal(%T) from %q: %v", v, data, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%T from %q encodes differently:\n table:        %s\n json.Marshal: %s", v, data, got, want)
	}
}

// encodesAs decodes data with the table and, if it is accepted, holds the
// table's encoding of the value to json.Marshal's.
func encodesAs[T any](t *testing.T, data []byte, c codec[T]) {
	t.Helper()
	if v, err := decode(data, c, true); err == nil {
		marshalsAs(t, data, c.encode(nil, v), v)
	}
}

// writesAs fails the test unless Bundle.Write writes json.Marshal(b) and
// a newline.
func writesAs(t *testing.T, data []byte, b *Bundle) {
	t.Helper()
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		t.Fatalf("Bundle.Write from %q: %v", data, err)
	}
	out, ok := bytes.CutSuffix(buf.Bytes(), []byte("\n"))
	if !ok {
		t.Fatalf("Bundle.Write from %q does not end in a newline: %q", data, buf.Bytes())
	}
	marshalsAs(t, data, out, b)
}

// encodeSeeds are the places an encoder and encoding/json could part
// ways: HTML and quote escaping, control bytes by name and by number,
// U+2028/2029, invalid UTF-8 (which the decoder turns into U+FFFD and the
// string oracle below sees raw), zero values that omitempty drops or
// keeps, nil against empty lists, and the widest integers.
var encodeSeeds = []string{
	`{"type":"cf","cf":{"src":1,"dst":2},"seq":1,"client":"<a>&b"}`,
	`{"type":"step","step":{"host":1,"flow":{"src":-2147483648}},"seq":2,"client":"q\"b\\s/"}`,
	`{"type":"cf","seq":3,"client":"\u0000\u0001\b\t\n\u000b\f\r\u001f\u007f"}`,
	`{"type":"cf","seq":4,"client":"\u2028\u2029 \u2027\u202a"}`, "{\"type\":\"cf\",\"seq\":4,\"client\":\"\u2028\u2029\"}",
	"{\"type\":\"cf\",\"seq\":5,\"client\":\"\xff\xfe\xc3\x28 é ✓ 😀\"}",
	`{"type":"cf","seq":0,"client":"h1"}`, `{"type":"cf","seq":1,"client":""}`, `{"type":"","cf":{}}`,
	`{"type":"report","report":{"at_ns":1,"triggered_by":{},"flows":[],"ports":null,"ttl_drops":[{}],"hops_polled":0,"ports_missed":0}}`,
	`{"type":"report","report":{"flows":[{"wait":[]},{"wait":null},{"wait":[{}]}],"ports":[{"meter_in":[],"pfc_events":[{}]}],"ports_missed":3}}`,
	`{"format":2,"next_lsn":18446744073709551615,"messages":[],"acked":null}`,
	`{"format":2,"next_lsn":0,"messages":[{"client":"a","seq":9223372036854775807,"type":"cf","cf":{"sport":65535,"proto":255}}],"acked":[{"client":"","seq":0}]}`,
	`{"format":1,"shard":1,"map":{"shards":2},"messages":null,"acked":[{"client":"<h>","seq":-1}]}`,
	`{"ack":7,"client":"h03"}`, `{"nak":7,"client":"hé","error":"queue \"full\"","retry":true}`, `{"error":"bad"}`,
	`{"nak":2,"client":"h1","moved":true,"owner":0,"map":{"shards":3},"error":"client \"h1\" belongs to shard 0","retry":true}`,
	`{"ack":0,"nak":0,"client":"","moved":false,"owner":null,"map":null,"error":"","retry":false}`,
	// placement NAKs: a router's moved NAK names the owning shard's address
	`{"nak":1,"client":"h1","moved":true,"owner":1,"map":{"shards":2},"addr":"[::1]:7000","error":"client \"h1\" is placed on shard 1","retry":true}`,
	`{"nak":9,"client":"h\"q<&>","moved":true,"owner":0,"map":{"shards":1},"addr":"127.0.0.2:41234","error":"client \"h\\\"q\u003c\u0026\u003e\" is placed on shard 0","retry":true}`,
	`{"ack":0,"nak":0,"error":"","retry":false,"moved":false,"addr":""}`,
	`{"records":[{"host":1,"flow":{"src":1}}],"reports":[{"flows":[]}],"cfs":[],"metrics":{"b":1,"a\"<&>":-2,"\u2028":0}}`,
	`{"records":null,"reports":[],"metrics":{}}`,
}

// FuzzEncodeMatchesMarshal is the encoder's parity oracle: whatever the
// decoder accepts as a DTO, that DTO's table encodes exactly as
// json.Marshal does, and a bundle writes as json.Marshal does; a reply
// line and a shard map, which nothing decodes, are read by encoding/json
// instead; and the input itself, as a string, is quoted as json.Marshal
// quotes it.
func FuzzEncodeMatchesMarshal(f *testing.F) {
	seed(f, encodeSeeds...)
	f.Fuzz(func(t *testing.T, data []byte) {
		encodesAs(t, data, flowCodec)
		encodesAs(t, data, stepRecordCodec)
		encodesAs(t, data, reportCodec)
		encodesAs(t, data, sourcedMessageCodec)
		encodesAs(t, data, replyCodec)
		if m, err := DecodeMessage(data); err == nil {
			marshalsAs(t, data, AppendMessage(nil, m), m)
		}
		if s, err := DecodeSnapshot(data); err == nil {
			marshalsAs(t, data, AppendSnapshot(nil, s), s)
		}
		if b, err := DecodeBundle(data); err == nil {
			writesAs(t, data, b)
		}
		var r ReplyLine
		if json.Unmarshal(data, &r) == nil {
			marshalsAs(t, data, AppendReply(nil, &r), &r)
		}
		var m ShardMap
		if json.Unmarshal(data, &m) == nil {
			marshalsAs(t, data, shardMapCodec.encode(nil, &m), &m)
		}
		marshalsAs(t, data, text(nil, string(data)), string(data))
	})
}
