package spec

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the decoder golden files")

// checkGolden compares got against testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs in length: %d lines, want %d", path, len(gl), len(wl))
	}
}

// TestSpecCorpusGolden pins what every shipped spec decodes to, defaults
// included: the conformance corpus and the good_* fixtures, each dumped
// as indented JSON.
func TestSpecCorpusGolden(t *testing.T) {
	var files []string
	for _, pattern := range []string{
		filepath.Join("..", "..", "testdata", "conformance", "*.yaml"),
		filepath.Join("testdata", "good_*.yaml"),
	} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) == 0 {
		t.Fatal("no specs found")
	}
	var out bytes.Buffer
	for _, file := range files {
		sp, err := Load(file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		data, err := json.MarshalIndent(sp, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "== %s\n%s\n", filepath.ToSlash(file), data)
	}
	checkGolden(t, "corpus.golden", out.Bytes())
}

// faultKey is one schema key and the document it is faulted in: the key
// sits at indent in a document whose lines are head, the key's line (or
// lines), then tail.
type faultKey struct {
	section, name string
	indent        int
	item          bool // the value is a list item of the key, not the key's value
	head          string
	tail          string
}

// faultValues is the battery every key is faulted with: a mapping where a
// scalar belongs, unparsable values, a quoted number, a list, and numbers
// below, at and beyond every bound the schema has.
var faultValues = []string{
	"{mapping}", "bogus", "1.5x", `"3"`, "[1, 2]", "true",
	"-1", "0", "1", "2", "15", "16", "17", "64", "0.5", "1.5", "-0.5", "10ms", "-1ms",
	"99999999999999999999",
}

// faultKeys lists every key the schema knows, each in a document that is
// valid without it.
func faultKeys() []faultKey {
	const (
		scen   = "scenario:\n  anomaly: clean\n"
		expect = "expect:\n  outcome: TP\n"
	)
	var keys []faultKey
	add := func(section string, indent int, head, tail string, names ...string) {
		for _, n := range names {
			keys = append(keys, faultKey{section: section, name: n, indent: indent, head: head, tail: tail})
		}
	}
	// Top-level keys and sections: a section faulted whole.
	add("spec", 0, "", scen+expect, "name", "description", "mode")
	add("spec", 0, "", expect, "scenario")
	add("spec", 0, scen, expect, "params", "chaos", "analyzerd", "fleet")
	add("spec", 0, scen, "", "expect")
	add("scenario", 2, "scenario:\n", expect,
		"topology", "anomaly")
	add("scenario", 2, scen, expect,
		"seed", "seeds", "system", "scale", "ranks", "op", "alg", "flows")
	keys = append(keys,
		faultKey{section: "scenario", name: "seeds", indent: 2, item: true, head: scen, tail: expect},
		faultKey{section: "scenario", name: "flows", indent: 2, item: true, head: scen, tail: expect},
		faultKey{section: "expect", name: "anomaly-types", indent: 2, item: true, head: "scenario:\n  anomaly: clean\nexpect:\n", tail: ""})
	flow := "scenario:\n  anomaly: incast\n  flows:\n    - mb: 10\n"
	add("flow", 6, "scenario:\n  anomaly: incast\n  flows:\n    - dst: 3\n      mb: 10\n", expect, "src")
	add("flow", 6, "scenario:\n  anomaly: incast\n  flows:\n    - src: 8\n      mb: 10\n", expect, "dst")
	add("flow", 6, "scenario:\n  anomaly: incast\n  flows:\n    - src: 8\n      dst: 3\n", expect, "mb")
	add("flow", 6, flow+"      src: 8\n      dst: 3\n", expect, "start-ms")
	add("params", 2, scen+"params:\n", expect,
		"rtt-factor", "max-detect-per-step", "fixed-rtt-threshold", "unrestricted")
	add("chaos", 2, scen+"chaos:\n", expect,
		"loss", "seed", "notify-drop-rate", "notify-dup-rate", "notify-delay-rate", "notify-delay",
		"poll-loss-rate", "port-loss-rate", "monitor-kill-rate", "monitor-kill-window", "monitor-down-for")
	add("analyzerd", 2, "mode: analyzerd\n"+scen+"analyzerd:\n", expect,
		"kill-after", "snapshot-every", "fsync")
	add("fleet", 2, "mode: fleet\n"+scen+"fleet:\n", expect, "shards")
	add("fleet", 2, "mode: fleet\n"+scen+"fleet:\n  shards: 4\n  kill-shard-after: 5\n", expect, "kill-shard")
	add("fleet", 2, "mode: fleet\n"+scen+"fleet:\n  shards: 4\n  kill-shard: 1\n", expect, "kill-shard-after")
	add("fleet", 2, "mode: fleet\n"+scen+"fleet:\n  shards: 4\n", expect,
		"hold-down-shard", "snapshot-every", "fsync")
	add("expect", 2, scen+"expect:\n  completed: true\n", "",
		"outcome", "completed", "anomaly-types",
		"min-findings", "max-findings", "culprits-include-injected", "min-culprits", "max-culprits",
		"min-victims", "victims-are-collective", "min-confidence", "max-confidence", "root-localized",
		"precision", "recall", "min-precision", "min-recall")
	// Aggregate expectations only decode with a seeds list.
	add("expect(seeds)", 2, "scenario:\n  anomaly: clean\n  seeds: [1, 2]\nexpect:\n", "",
		"precision", "recall", "min-precision", "min-recall")

	// Cross-key rules, each against a faulted key, so the order in which
	// a missing key, a pairing and a bound are checked is pinned too.
	add("scenario(no anomaly)", 2, "scenario:\n  topology: paper-fattree\n", expect,
		"seed", "seeds", "system", "ranks", "flows")
	add("scenario(seed)", 2, scen+"  seed: 1\n", expect, "seeds")
	add("scenario(seeds)", 2, scen+"  seeds: [1]\n", expect, "seed")
	add("flow(no src)", 6, "scenario:\n  anomaly: incast\n  flows:\n    - mb: 10\n", expect, "dst", "start-ms")
	add("flow(no mb)", 6, "scenario:\n  anomaly: incast\n  flows:\n    - src: 8\n      dst: 3\n      start-ms: 1\n", expect, "dst")
	add("analyzerd(in-process)", 2, scen+"analyzerd:\n", expect, "kill-after", "fsync")
	add("analyzerd(seeds)", 2, "mode: analyzerd\nscenario:\n  anomaly: clean\n  seeds: [1, 2]\nanalyzerd:\n", expect, "kill-after")
	add("fleet(in-process)", 2, scen+"fleet:\n", expect, "shards", "fsync")
	add("fleet(no shards)", 2, "mode: fleet\n"+scen+"fleet:\n", expect,
		"kill-shard", "hold-down-shard", "snapshot-every", "fsync")
	add("fleet(no kill-shard)", 2, "mode: fleet\n"+scen+"fleet:\n  shards: 4\n", expect, "kill-shard-after")
	add("fleet(kill-shard 9)", 2, "mode: fleet\n"+scen+"fleet:\n  shards: 4\n  kill-shard: 9\n", expect, "kill-shard-after")
	add("fleet(kill)", 2, "mode: fleet\n"+scen+"fleet:\n  shards: 4\n  kill-shard: 1\n  kill-shard-after: 5\n", expect,
		"hold-down-shard", "fsync")
	add("fleet(in analyzerd)", 0, "mode: analyzerd\n"+scen, expect, "fleet")
	add("analyzerd(in fleet)", 0, "mode: fleet\n"+scen+"fleet:\n  shards: 2\n", expect, "analyzerd")
	add("spec(bad expect)", 0, scen+"expect:\n  outcome: maybe\n", "", "params", "chaos", "mode", "bogus-key")
	return keys
}

// faultDoc renders key k with value v in its document.
func faultDoc(k faultKey, v string) string {
	pad := strings.Repeat(" ", k.indent)
	var line string
	switch {
	case k.item && v == "{mapping}":
		line = pad + k.name + ":\n" + pad + "  - x: 1\n"
	case k.item:
		line = pad + k.name + ":\n" + pad + "  - " + v + "\n"
	case v == "{mapping}":
		line = pad + k.name + ":\n" + pad + "  x: 1\n"
	default:
		line = pad + k.name + ": " + v + "\n"
	}
	return k.head + line + k.tail
}

// TestSpecErrorsGolden pins the exact "line N: message" of every refusal:
// each bad_* fixture, and every schema key faulted alone with each value of
// a fixed battery. A document the battery does not break is recorded as
// "ok".
func TestSpecErrorsGolden(t *testing.T) {
	var out bytes.Buffer
	files, err := filepath.Glob(filepath.Join("testdata", "bad_*.yaml"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no bad_* fixtures: %v", err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%s: %s\n", filepath.Base(file), outcomeOf(data))
	}
	for _, k := range faultKeys() {
		name := k.name
		if k.item {
			name += "[]"
		}
		for _, v := range faultValues {
			fmt.Fprintf(&out, "%s.%s = %s: %s\n", k.section, name, v, outcomeOf([]byte(faultDoc(k, v))))
		}
	}
	checkGolden(t, "errors.golden", out.Bytes())
}

func outcomeOf(data []byte) string {
	if _, err := ParseSpec(data); err != nil {
		return err.Error()
	}
	return "ok"
}
