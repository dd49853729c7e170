package wire_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"vedrfolnir/internal/obs"
	"vedrfolnir/internal/scenario"
	"vedrfolnir/internal/wire"
)

// These tests run a real scenario through wire's exported API only, so
// they live outside package wire.

// scenarioBundle is what vedrsim -anomaly contention -seed 14 -trace
// dumps: a real run's records, reports and CFs, and its scope's metrics.
func scenarioBundle(t *testing.T) *wire.Bundle {
	t.Helper()
	cfg := scenario.DefaultConfig()
	cs, err := scenario.GenerateCase(scenario.Contention, 14, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := scenario.DefaultRunOptions(cfg)
	opts.Obs = &obs.Scope{Metrics: obs.NewRegistry()}
	res, err := scenario.Run(cs, scenario.Vedrfolnir, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	b := wire.NewBundle(res.Records, res.Reports, res.CFs)
	b.Metrics = opts.Obs.M().Flatten()
	if len(b.Records) == 0 || len(b.Reports) == 0 || len(b.CFs) == 0 || len(b.Metrics) == 0 {
		t.Fatalf("scenario bundle has an empty part: %d records, %d reports, %d CFs, %d metrics",
			len(b.Records), len(b.Reports), len(b.CFs), len(b.Metrics))
	}
	return b
}

// TestBundleWriteIsMarshal: Write's bytes are json.Marshal's and a newline
// on a real bundle with scope metrics (megabytes, so it reaches the writer
// in many pieces), on nil against empty lists and metrics (null against []
// for a list, no key for either map), and on metrics keys that
// json.Marshal escapes.
func TestBundleWriteIsMarshal(t *testing.T) {
	real := scenarioBundle(t)
	for _, tc := range []struct {
		name string
		b    *wire.Bundle
	}{
		{"scenario", real},
		{"nil", &wire.Bundle{}},
		{"empty", &wire.Bundle{Records: []wire.StepRecord{}, Reports: []wire.Report{}, CFs: []wire.Flow{}, Metrics: map[string]int64{}}},
		{"escaped", &wire.Bundle{CFs: real.CFs[:1], Metrics: map[string]int64{"<&>": 1, `q"\`: -2, "\u2028é": 3, "\xff": 4, "a": 0}}},
	} {
		name, b := tc.name, tc.b
		var buf bytes.Buffer
		if err := b.Write(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := json.Marshal(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "scenario" && buf.Len() < 1<<20 {
			t.Errorf("the scenario bundle is %d bytes, too few to be written in many pieces", buf.Len())
		}
		if !bytes.Equal(buf.Bytes(), append(want, '\n')) {
			t.Errorf("%s: Write differs from json.Marshal and a newline:\n Write:        %.300s\n json.Marshal: %.300s", name, buf.Bytes(), want)
		}
	}
}

// TestIndentedBundleStillReads: the indented bundles older builds wrote
// (their json.Encoder's bytes, which are json.Indent of Write's) decode,
// by both entry points, to the bundle Write's one line does, and diagnose
// the same.
func TestIndentedBundleStillReads(t *testing.T) {
	b := scenarioBundle(t)
	var compact, indented, old bytes.Buffer
	if err := b.Write(&compact); err != nil {
		t.Fatal(err)
	}
	if err := json.Indent(&indented, compact.Bytes(), "", " "); err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(&old)
	enc.SetIndent("", " ")
	if err := enc.Encode(b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(indented.Bytes(), old.Bytes()) || bytes.Equal(indented.Bytes(), compact.Bytes()) {
		t.Fatal("json.Indent of Write's bytes is not the old indented format")
	}
	for name, read := range map[string]func([]byte) (*wire.Bundle, error){
		"DecodeBundle": wire.DecodeBundle,
		"ReadBundle":   func(data []byte) (*wire.Bundle, error) { return wire.ReadBundle(bytes.NewReader(data)) },
	} {
		want, err := read(compact.Bytes())
		if err != nil {
			t.Fatalf("%s, compact: %v", name, err)
		}
		got, err := read(indented.Bytes())
		if err != nil {
			t.Fatalf("%s, indented: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the indented bundle decodes differently", name)
		}
		if g, w := got.Analyze().Summary(), want.Analyze().Summary(); g != w {
			t.Errorf("%s: the indented bundle diagnoses differently:\n%s\nvs\n%s", name, g, w)
		}
	}
}
