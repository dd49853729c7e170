package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"vedrfolnir/internal/obs"
	"vedrfolnir/internal/scenario"
)

// splitBundle is a real contention case's bundle, compact as Bundle.Write
// writes it, cut down to a few dozen of each element so that every cut
// below stays cheap, with the run's metrics and one key that reads like a
// resync point.
func splitBundle(t *testing.T) []byte {
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
	b := NewBundle(res.Records, res.Reports, res.CFs)
	if len(b.Records) < 48 || len(b.Reports) < 6 || len(b.CFs) < 24 {
		t.Fatalf("case too small: %d records, %d reports, %d CFs", len(b.Records), len(b.Reports), len(b.CFs))
	}
	b.Records, b.Reports, b.CFs = b.Records[:48], b.Reports[:6], b.CFs[:24]
	b.Metrics = opts.Obs.M().Flatten()
	b.Metrics[`},{"host":1,"step":2`] = 7
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSplitDecodeMatchesSequential: a bundle decoded in two halves is the
// sequential decode, the same value (reflect.DeepEqual) or the same error
// string, under DecodeBundle's rule and ReadBundle's, wherever the split is
// forced: at every "},{" (each top-level element boundary, and the nested
// ones and the metrics key that only look like one) and at every 97th
// byte, the first resync point from there on being the cut. The inputs are
// the bundle and broken or reordered forms of it: truncations, flipped
// bytes, a repeated or out-of-order key after the cut, an escaped key, an
// unknown key holding a resync point, nesting at and past the depth limit
// after the cut, elements that look like another list's, and the indented
// form (which has none, so it decodes sequentially).
func TestSplitDecodeMatchesSequential(t *testing.T) {
	data := splitBundle(t)
	s := string(data)
	recs, reps, cfs := strings.Index(s, `"records":`), strings.Index(s, `,"reports":`), strings.Index(s, `,"cfs":`)
	var indented bytes.Buffer
	if err := json.Indent(&indented, data, "", " "); err != nil {
		t.Fatal(err)
	}
	end := len(s) - 2                                        // before the closing "}\n"
	last := strings.LastIndex(s[:reps], `},{"host":`) + 3    // in the last record, at depth 3
	inList := reps + strings.Index(s[reps:], `},{"switch":`) // between two elements of a report's list
	report := `"at_ns":1,"triggered_by":{"src":1}`
	variants := map[string]string{
		"bundle":            s,
		"trailing value":    s + `{"records":[{"host":1,"step":2}]}`,
		"truncated 1/3":     s[:len(s)/3],
		"truncated 3/5":     s[:len(s)*3/5],
		"truncated 9/10":    s[:len(s)*9/10],
		"flip 1/4":          flip(s, len(s)/4),
		"flip 2/3":          flip(s, len(s)*2/3),
		"flip last":         flip(s, end),
		"records repeated":  s[:end] + `,"records":[{"host":5,"step":9}]}`,
		"records last":      "{" + s[reps+1:end] + "," + s[recs:reps] + "}",
		"cfs before":        "{" + s[cfs+1:end] + "," + s[recs:cfs] + "}",
		"escaped key":       strings.Replace(s, `"reports":`, `"\u0072eports":`, 1),
		"folded key":        strings.Replace(s, `"cfs":`, `"CFS":`, 1),
		"unknown key ahead": `{"x":[{"host":1,"step":2},{"host":3,"step":4}],` + s[1:],
		"depth 10000 late":  s[:last] + `"zz":` + nested(maxDepth-3) + "," + s[last:],
		"depth 10001 late":  s[:last] + `"zz":` + nested(maxDepth-2) + "," + s[last:],
		// Elements that lead as a report does where no report starts: in
		// the records list of a bundle that has no other, and one level
		// down, in a report's own list.
		"report-shaped record":  s[:last] + report + "},{" + s[last:reps] + "}",
		"report-shaped element": s[:inList+1] + ",{" + report + "}" + s[inList+1:],
		"indented":              indented.String(),
	}
	n := 0
	for name, v := range variants {
		var cuts []int
		for p := 0; p < len(v); p += 97 {
			cuts = append(cuts, p)
		}
		for p := 0; ; p++ {
			j := strings.Index(v[p:], "},{")
			if j < 0 {
				break
			}
			p += j
			cuts = append(cuts, p)
		}
		for _, whole := range []bool{true, false} {
			want, wantErr := decode([]byte(v), bundleCodec, whole)
			for _, cut := range cuts {
				got, gotErr := decodeFrom([]byte(v), whole, cut)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, whole %v, cut at %d: split decode gave %v, sequential %v", name, whole, cut, gotErr, wantErr)
				}
				n++
			}
		}
	}
	t.Logf("%d split decodes of %d variants (the bundle %d bytes) matched the sequential decode", n, len(variants), len(data))
}

// flip returns s with its i-th byte changed.
func flip(s string, i int) string { return s[:i] + string(s[i]^0x5a) + s[i+1:] }

// TestReadBundleSplitAllocs ratchets, at the measured value, what a bundle
// decoded on two cores costs: the sequential decode's allocations
// (TestReadBundleAllocs, whose AllocsPerRun runs at GOMAXPROCS 1), the
// tail's goroutine, its Bundle and the backing arrays of its half of a
// list, and the list joined.
func TestReadBundleSplitAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	data := fixedBundle(t, 256, 16)
	const runs, ceiling = 50, 123 // 121.3 measured, 122.2 under the race detector
	read := func() {
		if _, err := ReadBundle(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	read()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		read()
	}
	runtime.ReadMemStats(&after)
	if got := float64(after.Mallocs-before.Mallocs) / runs; got > ceiling {
		t.Errorf("ReadBundle at GOMAXPROCS 2: %.1f allocs per run, ceiling %d", got, ceiling)
	}
}
