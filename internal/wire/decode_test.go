package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"vedrfolnir/internal/collective"
	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/telemetry"
	"vedrfolnir/internal/topo"
)

// encoding/json is the reference the decoder in decode.go must agree with:
// for every input the same accept/refuse decision, and on accept a
// reflect.DeepEqual value. These helpers are that oracle; the fuzzers in
// fuzz_test.go and the tables below all go through them.

// differ decodes data both ways as a T that must be the whole input
// (json.Unmarshal's rule) and fails the test on any disagreement.
func differ[T any](t *testing.T, data []byte, c codec[T]) (T, bool) {
	t.Helper()
	var want T
	wantErr := json.Unmarshal(data, &want)
	got, gotErr := decode(data, c, true)
	if gotErr != nil {
		got = new(T)
	}
	agree(t, data, *got, gotErr, want, wantErr)
	return *got, gotErr == nil
}

func agree(t *testing.T, data []byte, got any, gotErr error, want any, wantErr error) {
	t.Helper()
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("accept/refuse mismatch on %q:\n decoder:       %v\n encoding/json: %v", data, gotErr, wantErr)
	}
	if wantErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("value mismatch on %q:\n decoder:       %+v\n encoding/json: %+v", data, got, want)
	}
}

// differBundleStream is differ for ReadBundle: the first value of a stream,
// whatever follows (json.Decoder.Decode's rule).
func differBundleStream(t *testing.T, data []byte) {
	t.Helper()
	var want Bundle
	wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
	got, gotErr := ReadBundle(bytes.NewReader(data))
	if gotErr != nil {
		got = &Bundle{}
	}
	agree(t, data, *got, gotErr, want, wantErr)
}

// differAll runs one input through every decoder the file has. A key that
// means nothing to a type is an unknown key there, which is a case too.
func differAll(t *testing.T, data []byte) {
	t.Helper()
	differ(t, data, flowCodec)
	differ(t, data, stepRecordCodec)
	differ(t, data, reportCodec)
	differ(t, data, snapshotCodec)
	differ(t, data, messageCodec)
	differ(t, data, bundleCodec)
	differ(t, data, replyCodec)
	differBundleStream(t, data)
}

// quirks is the checked-in corpus of the places a hand-written decoder and
// encoding/json could part ways. TestDecodeQuirks runs it through every
// decoder; every differential fuzzer starts from it.
var quirks = []string{
	// key matching: exact first, then Unicode case folding (ſ folds to s, the Kelvin sign to k)
	`{"SRC":1,"src":2}`, `{"src":2,"SRC":1}`, `{"Src":3}`, `{"\u0073rc":4}`, `{"ſrc":5}`, `{"\u017frc":6}`,
	`{"ac\u212aed":[{"client":"a"}]}`, `{"HOPS_POLLED":3,"hops_polled":null}`, `{"":1}`,
	// duplicate keys: last scalar wins, objects merge, arrays decode in place over stale elements
	`{"cfs":[{"src":1},{"src":2}],"cfs":[{"dst":5}],"cfs":[{},{}]}`,
	`{"cfs":[{"src":1}],"cfs":[]}`, `{"cfs":[{"src":1}],"cfs":null,"cfs":[{}]}`,
	`{"flows":[{"switch":1,"wait":[{"n":1},{"n":2}]}],"flows":[{"port":2,"wait":[{"flow":{"src":1}}]}]}`,
	`{"step":{"host":1},"step":{"step":2},"type":"step"}`, `{"step":{"host":1},"step":null,"step":{}}`,
	`{"messages":[{"client":"a","seq":1,"cf":{"src":1}}],"messages":[{"type":"cf","cf":{"dst":2}}]}`,
	`{"map":{"shards":2},"map":{"epoch":3}}`, `{"triggered_by":{"src":1},"triggered_by":{"dst":2}}`,
	`{"metrics":{"a":1,"a":null,"b":2},"metrics":{"c":3}}`, `{"metrics":{"a":1},"metrics":null}`,
	// the predicted key (the entry after the last one matched) read on the raw
	// bytes: anything but exactly "key": must fall back to the lookup
	`{"proto":17,"dport":2,"sport":1,"dst":4,"src":3}`,
	`{"bound_by_wait":true,"wait_step":0,"wait_src":2,"end_ns":9,"start_ns":1,"bytes":5,"flow":{"proto":6,"src":1},"step":1,"host":3}`,
	`{"host" :1}`, "{\"host\"\t:1,\"step\"\n: 2 ,\"flow\":\r\n{}}", `{"src":1,"dst" :2}`,
	`{"host":1}`, `{"src":1,"dst":2}`, `{"\u0068ost":1}`, `{"src":1,"\u0064st":2}`, `{"host":1,"step":2,"step":3}`,
	`{"HOST":1,"host":2}`, `{"host":1,"STEP":2,"step":3}`, `{"src":1,"Dst":2,"dst":null}`,
	`{"steps":1,"step":2}`, `{"host":1,"steps":2}`, `{"src":1,"dsts":2,"dst":3}`, `{"flows":[],"ports_missed":1}`, `{"hostx:1,"x":2}`, `{"src":1,"dsts:2,"x":3}`,
	`{"ports":[{"switch":1,"ports":2,"port":3}]}`, `{"pfc_events":[{"upstream":{"node":1,"ports":2}}]}`,
	`{"host":1,"host":2}`, `{"src":1,"src":2,"dst":3,"dst":4}`, `{"host":1,"step":2,"step":null}`,
	`{"host"`, `{"host":`, `{"src":1,"dst"`, `{"src":1,"dst":`, `{"src":1,"ds`, `{"src":1,"dst`, `{"records":[{"host":1,"step"`,
	`{"at_ns":5,"triggered_by":{"src":1,"dst":2,"sport":7,"dport":8,"proto":17},"flows":[{"switch":9,"port":1,` +
		`"flow":{"src":1,"dst":2,"sport":0,"dport":0,"proto":0},"pkts":10,"bytes":1000,"wait":[{"flow":{"src":3,"dst":4,"sport":0,"dport":0,"proto":0},"n":7}]}],` +
		`"ports":[{"switch":9,"port":0,"queued_bytes":1,"queued_pkts":2,"avg_queued_bytes":3,"paused":true,"pause_count":1,"paused_for_ns":9,` +
		`"meter_in":[{"from":{"node":2,"port":1},"bytes":5}],"pfc_events":[{"at_ns":1,"pause":true,"upstream":{"node":2,"port":1},"downstream":9,"ingress":1,"cause":3,"injected":false}]}],` +
		`"ttl_drops":[{"switch":4,"n":2}],"hops_polled":3,"ports_missed":0}`,
	// null and empty
	`{"step":null}`, `{"step":{}}`, `{"cf":null,"report":{},"map":null,"handoff":{}}`, `{"metrics":null}`, `{"metrics":{}}`,
	`{"flows":[],"ports":null,"ttl_drops":[{}],"records":[null],"cfs":[null,{}]}`,
	`{"src":5,"src":null}`, `{"bound_by_wait":true,"bound_by_wait":null}`, `{"client":"a","client":null}`,
	`null`, ` null `, `nullx`, `null x`, `nul`, `{}`, ` {} `,
	// integers: no fraction, exponent or string; each field's own width
	`{"dst":1e2}`, `{"dst":1.0}`, `{"dst":"1"}`, `{"dst":true}`, `{"dst":[1]}`, `{"dst":{}}`, `{"src":-0}`, `{"src":01}`, `{"src":-}`,
	`{"sport":65535}`, `{"sport":65536}`, `{"sport":-0}`, `{"sport":-1}`, `{"proto":255}`, `{"proto":256}`, `{"proto":-1}`,
	`{"src":2147483647}`, `{"src":2147483648}`, `{"src":-2147483648}`, `{"src":-2147483649}`,
	`{"bytes":9223372036854775807}`, `{"bytes":9223372036854775808}`, `{"bytes":-9223372036854775808}`, `{"bytes":-9223372036854775809}`,
	`{"next_lsn":18446744073709551615}`, `{"next_lsn":18446744073709551616}`, `{"next_lsn":-0}`, `{"seq":99999999999999999999}`,
	`{"next_lsn":9999999999999999999}`, `{"next_lsn":10000000000000000000}`, `{"next_lsn":00000000000000000000}`, `{"src":-01}`, `{"bytes":-9999999999999999999}`,
	`{"bound_by_wait":1}`, `{"paused":"true"}`, `{"bound_by_wait":tru}`, `{"client":5}`, `{"type":["cf"]}`,
	// strings: escapes, surrogates, invalid UTF-8, control characters
	`{"client":"h\u00e91","type":"cf","cf":{}}`, `{"client":"\ud800"}`, `{"client":"\ud83d\ude00"}`, "{\"client\":\"\xff\"}", "{\"client\":\"é\"}",
	"{\"client\":\"a\tb\"}", `{"client":"a\tb\/\"\\"}`, `{"client":"\x"}`, `{"client":"\u12"}`, `{"client":"\u12G4"}`, `{"client":"abc`, `{"client":"abc\`,
	`{"metrics":{"\u00e9":1,"\ud800":2,"é":3}}`, "{\"\xffrc\":1}",
	// unknown keys are skipped but validated in full
	`{"unknown":{"a":[1,-2.5e-3,0.1E+7,true,false,null,"x\n",{}]},"src":7}`, `{"unknown":[1,]}`, `{"unknown":{"a"}}`, `{"unknown":{"a":1,}}`,
	`{"unknown":184467440737095516160}`, `{"unknown":-184467440737095516160.5e1}`, `{"seq":184467440737095516160}`,
	`{"unknown":-}`, `{"unknown":1.}`, `{"unknown":1e}`, `{"unknown":1e+}`, `{"unknown":0x}`, `{"unknown":00}`, `{"unknown":.5}`, `{"unknown":tru}`, `{"unknown":nul}`, `{"unknown":"\u00zz"}`,
	`{"unknown":[}`, `{"unknown":{]}`, `{"unknown":}`, `{"unknown"}`, `{unknown:1}`, `{'src':1}`,
	// syntax and trailing bytes: Unmarshal wants only whitespace after the value, Decoder.Decode stops reading
	`{"src"`, `{"src":`, `{"src":}`, `{"src":1`, `{"src":1,}`, `{,}`, `{"src":1 "dst":2}`, `{"src" 1}`, `[`, `]`, `}`, `[]`, `[{}]`, `5`, `-`, `"s"`, `true`, ``, ` `, "\x00",
	`{"src":1}x`, `{"src":1} x`, `{"src":1}{"src":2}`, "{\"src\":1}\n", `{"records":[]}]`, "\ufeff{}",
	// error keys: a reply reads the text of a string and refuses any other value
	`{"error":"boom"}`, `{"error":5,"format":1}`, `{"ERROR":"x","error":null}`, `{"error":"a","error":"b"}`, `{"error":"a","error":5}`, `{"error":{"x":[1]},"format":1,"shard":1}`,
	// reply lines: the client's reader refuses a non-string error, the router's skips it
	`{"ack":7,"client":"h03"}`, `{"nak":3,"client":"h\u00e9","error":"overloaded","retry":true}`, `{"error":"bad line"}`, `{"error":5}`,
	// a moved NAK from a build whose map still had a vnode count: the
	// replicas key is skipped like any unknown key
	`{"nak":2,"client":"h1","error":"moved","retry":true,"moved":true,"map":{"shards":2,"replicas":8}}`, `{"ack":"7"}`, `{"retry":1}`,
	// whole documents; remap and adopt lines from older builds decode
	// with their map, epoch and handoff keys skipped as unknown keys
	`{"type":"dump"}`, `{"type":"remap","map":{"shards":3,"epoch":2}}`,
	`{"type":"adopt","handoff":{"format":2,"map":{"shards":2},"from":1,"to":0,` + stateBody + `}}`,
	`{"format":1,"shard":1,"map":{"shards":2},` + stateBody + `}`,
	"{\n \"records\": [\n  {\n   \"host\": 3,\n   \"step\": 1,\n   \"flow\": {\n    \"src\": 3\n   },\n   \"bound_by_wait\": true\n  }\n ],\n \"reports\": null,\n \"cfs\": []\n}\n",
}

func TestDecodeQuirks(t *testing.T) {
	for _, q := range quirks {
		differAll(t, []byte(q))
	}
}

// TestDecodeReplyPlacement: a router's placement NAK hands the client the
// owning shard's address, and a shard's moved NAK, which has no addr key
// (nor did any build's before placement), still decodes, with Addr empty.
func TestDecodeReplyPlacement(t *testing.T) {
	for _, tc := range []struct {
		line string
		want Reply
	}{
		{`{"nak":3,"client":"h1","moved":true,"owner":1,"map":{"shards":2},"addr":"[::1]:7000","error":"placed","retry":true}`,
			Reply{Nak: 3, Error: "placed", Retry: true, Moved: true, Addr: "[::1]:7000"}},
		{`{"nak":2,"client":"h1","moved":true,"owner":0,"map":{"shards":3},"error":"client \"h1\" belongs to shard 0","retry":true}`,
			Reply{Nak: 2, Error: `client "h1" belongs to shard 0`, Retry: true, Moved: true}},
	} {
		got, err := DecodeReply([]byte(tc.line))
		if err != nil || *got != tc.want {
			t.Errorf("DecodeReply(%s) = %+v, %v; want %+v", tc.line, got, err, tc.want)
		}
	}
}

// TestDecodeFieldTablesMatchTags: every table in decode.go names exactly
// the json tags of its struct, in order, so a field added to a DTO cannot
// be forgotten by the decoder.
func TestDecodeFieldTablesMatchTags(t *testing.T) {
	tableMatchesTags(t, flowCodec)
	tableMatchesTags(t, portCodec)
	tableMatchesTags(t, stepRecordCodec)
	tableMatchesTags(t, flowCountCodec)
	tableMatchesTags(t, flowRecordCodec)
	tableMatchesTags(t, pfcEventCodec)
	tableMatchesTags(t, meterEntryCodec)
	tableMatchesTags(t, portRecordCodec)
	tableMatchesTags(t, dropEntryCodec)
	tableMatchesTags(t, reportCodec)
	tableMatchesTags(t, bundleCodec)
	tableMatchesTags(t, sourcedMessageCodec)
	tableMatchesTags(t, clientAckCodec)
	tableMatchesTags(t, shardMapCodec)
	tableMatchesTags(t, snapshotCodec)
	tableMatchesTags(t, messageCodec)
	tableMatchesTags(t, replyCodec)
	tableMatchesTags(t, replyLineCodec)
}

func tableMatchesTags[T any](t *testing.T, c codec[T], extra ...string) {
	t.Helper()
	var want []string
	var tags func(reflect.Type)
	tags = func(typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			switch f := typ.Field(i); {
			case f.Anonymous:
				tags(f.Type)
			case f.IsExported():
				name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
				want = append(want, name)
			}
		}
	}
	tags(reflect.TypeOf(*new(T)))
	want = append(want, extra...)
	var got []string
	for _, f := range c {
		// codec.decode matches a predicted key on the raw input bytes, which
		// reads a key as str would only if it is unique plain ASCII with
		// nothing to escape.
		if slices.Contains(got, f.key) || strings.ContainsFunc(f.key, func(r rune) bool { return r < 0x20 || r >= 0x80 || r == '"' || r == '\\' }) {
			t.Errorf("%T: key %q is repeated or not plain ASCII", *new(T), f.key)
		}
		got = append(got, f.key)
		// Every table both decodes and encodes but the three one-way ones:
		// a bundle is written by Bundle.Write, and a reply line and a shard
		// map are only written.
		typ := reflect.TypeOf(*new(T))
		writeOnly := typ == reflect.TypeOf(ReplyLine{}) || typ == reflect.TypeOf(ShardMap{})
		if (f.store == nil) != writeOnly || (f.emit == nil) != (typ == reflect.TypeOf(Bundle{})) {
			t.Errorf("%T: key %q has store %t, emit %t", *new(T), f.key, f.store != nil, f.emit != nil)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%T: table keys %v, struct tags %v", *new(T), got, want)
	}
}

// nested wraps n arrays around nothing: "[[[…]]]".
func nested(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }

// TestDecodeDepthLimit: 10 000 open containers are accepted and 10 001
// refused, exactly as encoding/json counts them — inside an unknown key
// and inside a typed list alike.
func TestDecodeDepthLimit(t *testing.T) {
	for _, tc := range []struct {
		name, prefix, suffix string
		outer                int // containers the prefix opens
	}{
		{"unknown key", `{"x":`, `}`, 1},
		{"inside flows", `{"flows":[{"x":`, `}]}`, 3},
	} {
		fits := []byte(tc.prefix + nested(maxDepth-tc.outer) + tc.suffix)
		over := []byte(tc.prefix + nested(maxDepth-tc.outer+1) + tc.suffix)
		if _, ok := differ(t, fits, reportCodec); !ok {
			t.Errorf("%s: depth %d refused", tc.name, maxDepth)
		}
		if _, ok := differ(t, over, reportCodec); ok {
			t.Errorf("%s: depth %d accepted", tc.name, maxDepth+1)
		}
		differ(t, fits, messageCodec)
		differ(t, over, messageCodec)
	}
}

// TestDecodeDeepNestingBoundedStack: a megabyte of '[' — what a hostile
// peer fits in one -max-line many times over — comes back as an error
// from a stack that never needed more than 16 MiB. A skipper that recursed
// once per '[' without the depth check would need several times that and
// die here with a fatal, unrecoverable stack overflow.
func TestDecodeDeepNestingBoundedStack(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(16 << 20))
	run := strings.Repeat("[", 1<<20)
	for _, in := range []string{run, `{"x":` + run, `{"flows":` + run, `{"type":"cf","cf":{"y":` + run} {
		if _, err := DecodeMessage([]byte(in)); err == nil {
			t.Fatalf("a 1 MiB run of '[' after %q was accepted", in[:min(len(in), 24)])
		}
		if _, err := ReadBundle(strings.NewReader(in)); err == nil {
			t.Fatalf("ReadBundle accepted a 1 MiB run of '[' after %q", in[:min(len(in), 24)])
		}
	}
}

// fixedBundle serializes a deterministic bundle the way vedrsim -dump
// does (Bundle.Write's one compact line): nrec step records, nrep fully
// populated reports, their flows.
func fixedBundle(t testing.TB, nrec, nrep int) []byte {
	rng := rand.New(rand.NewSource(17))
	var records []collective.StepRecord
	cfs := map[fabric.FlowKey]bool{}
	for i := 0; i < nrec; i++ {
		f := randFlow(rng)
		cfs[f] = true
		records = append(records, collective.StepRecord{
			Host: f.Src, Step: i % 7, Flow: f, Bytes: 1 << 18,
			Start: simtime.Time(i * 1000), End: simtime.Time(i*1000 + 900),
			WaitSrc: topo.NodeID(i % 16), WaitStep: i%7 - 1, BoundByWait: i%3 == 0,
		})
	}
	var reports []*telemetry.Report
	for i := 0; i < nrep; i++ {
		reports = append(reports, randomReport(rng))
	}
	var buf bytes.Buffer
	if err := NewBundle(records, reports, cfs).Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadBundleMatchesReference: on a real bundle (every DTO populated)
// both entry points decode what encoding/json does, and
// ReadBundle does not care how its reader is typed or chunked.
func TestReadBundleMatchesReference(t *testing.T) {
	data := fixedBundle(t, 64, 16)
	want, ok := differ(t, data, bundleCodec)
	if !ok || len(want.Records) != 64 || len(want.Reports) != 16 {
		t.Fatalf("fixed bundle did not decode: ok=%v, %d records, %d reports", ok, len(want.Records), len(want.Reports))
	}
	differBundleStream(t, data)
	for name, r := range map[string]func() *Bundle{
		"DecodeBundle":    func() *Bundle { b, _ := DecodeBundle(data); return b },
		"bytes.Buffer":    func() *Bundle { b, _ := ReadBundle(bytes.NewBuffer(data)); return b },
		"unsized, 1 byte": func() *Bundle { b, _ := ReadBundle(oneByteReader{bytes.NewReader(data)}); return b },
	} {
		if got := r(); got == nil || !reflect.DeepEqual(*got, want) {
			t.Errorf("%s decoded a different bundle", name)
		}
	}
}

// oneByteReader hides Len and hands out a byte at a time.
type oneByteReader struct{ r *bytes.Reader }

func (o oneByteReader) Read(p []byte) (int, error) { return o.r.Read(p[:1]) }

// TestReadBundleAllocs ratchets, at the measured value, what a bundle
// costs beyond its bytes: one read buffer, the Bundle, and the backing
// arrays of its lists, which grow geometrically (append's growth, from 4
// elements) — nothing per record, field or key.
func TestReadBundleAllocs(t *testing.T) {
	data := fixedBundle(t, 256, 16)
	const ceiling = 111 // 110 measured; the race detector's instrumentation adds one
	got := testing.AllocsPerRun(20, func() {
		if _, err := ReadBundle(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	if got > ceiling {
		t.Errorf("ReadBundle: %.0f allocs per run, ceiling %d", got, ceiling)
	}
}

// BenchmarkReadBundleL and BenchmarkReadBundleXL decode bundles of
// diagnose-large's shapes (4 032 and 16 256 step records, 256 reports) and
// report decode throughput: go test -run '^$' -bench ReadBundle ./internal/wire
func BenchmarkReadBundleL(b *testing.B)  { benchmarkReadBundle(b, 4032) }
func BenchmarkReadBundleXL(b *testing.B) { benchmarkReadBundle(b, 16256) }

func benchmarkReadBundle(b *testing.B, nrec int) {
	data := fixedBundle(b, nrec, 256)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bundle, err := ReadBundle(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		benchBundle = bundle
	}
}

// BenchmarkBundleAnalyzeXL is one diagnose-large iteration on the XL
// shape without the harness: ReadBundle, Analyze and Summary. Run it and
// BenchmarkReadBundleXL at -cpu 1,2 to see what each half's second core
// buys: go test -run '^$' -bench 'XL$' -cpu 1,2 ./internal/wire
func BenchmarkBundleAnalyzeXL(b *testing.B) {
	data := fixedBundle(b, 16256, 256)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bundle, err := ReadBundle(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		benchSummary = bundle.Analyze().Summary()
	}
}

// BenchmarkWriteBundleXL writes the XL bundle as vedrsim -dump does, into
// a writer that discards it, and reports write throughput over the bytes
// written: go test -run '^$' -bench WriteBundle ./internal/wire
func BenchmarkWriteBundleXL(b *testing.B) {
	data := fixedBundle(b, 16256, 256)
	bundle, err := DecodeBundle(data)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bundle.Write(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBundle and benchSummary keep the benchmarks' results live.
var (
	benchBundle  *Bundle
	benchSummary string
)
