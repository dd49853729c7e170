package spec

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vedrfolnir/internal/scenario"
	"vedrfolnir/internal/simtime"
)

// TestFixtures walks testdata: good_* must parse, bad_* must fail with the
// error substring declared in the file's first-line "# want:" comment.
func TestFixtures(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no fixtures found")
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			sp, perr := ParseSpec(data)
			base := filepath.Base(file)
			switch {
			case strings.HasPrefix(base, "good_"):
				if perr != nil {
					t.Fatalf("expected success, got: %v", perr)
				}
				if len(sp.Scenario.Seeds) == 0 {
					t.Fatal("validated spec has no seeds")
				}
			case strings.HasPrefix(base, "bad_"):
				firstLine, _, _ := strings.Cut(string(data), "\n")
				want := strings.TrimSpace(strings.TrimPrefix(firstLine, "# want:"))
				if want == "" || !strings.HasPrefix(firstLine, "# want:") {
					t.Fatalf("bad_ fixture must start with a \"# want: <substring>\" comment, got %q", firstLine)
				}
				if perr == nil {
					t.Fatalf("expected an error containing %q, got success", want)
				}
				if !strings.Contains(perr.Error(), want) {
					t.Fatalf("error %q does not contain %q", perr.Error(), want)
				}
			default:
				t.Fatalf("fixture %s is neither good_* nor bad_*", base)
			}
		})
	}
}

func TestDefaults(t *testing.T) {
	sp, err := ParseSpec([]byte("scenario:\n  anomaly: clean\nexpect:\n  outcome: TP\n"))
	if err != nil {
		t.Fatal(err)
	}
	s := sp.Scenario
	if sp.Mode != InProcess {
		t.Errorf("Mode = %v, want in-process", sp.Mode)
	}
	if s.Topology != "paper-fattree" {
		t.Errorf("Topology = %q", s.Topology)
	}
	if len(s.Seeds) != 1 || s.Seeds[0] != 1 || s.MultiSeed {
		t.Errorf("Seeds = %v (multi=%v), want [1]", s.Seeds, s.MultiSeed)
	}
	if s.System != scenario.Vedrfolnir || s.ScaleDen != 90 || s.Ranks != 8 {
		t.Errorf("system/scale/ranks defaults wrong: %+v", s)
	}
	e := sp.Expect
	if e.MinFindings != Unset || e.MaxFindings != Unset || e.MinConfidence != Unset ||
		e.Precision != Unset || e.MinRecall != Unset || e.MinVictims != Unset {
		t.Errorf("numeric expectations should default to Unset: %+v", e)
	}
	if e.Outcome != "TP" || e.Completed != nil {
		t.Errorf("expect decoded wrong: %+v", e)
	}
}

func TestFullDecoding(t *testing.T) {
	sp, err := Load(filepath.Join("testdata", "good_full.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name != "full" || !strings.Contains(sp.Description, "# not a comment") {
		t.Errorf("name/description: %q / %q", sp.Name, sp.Description)
	}
	s := sp.Scenario
	if s.Anomaly != scenario.Incast || !s.MultiSeed || len(s.Seeds) != 3 || s.Seeds[2] != 2 {
		t.Errorf("scenario: %+v", s)
	}
	if s.ScaleDen != 30 {
		t.Errorf("ScaleDen = %v", s.ScaleDen)
	}
	p := sp.Params
	if p.RTTFactor != 1.5 || p.MaxDetectPerStep != 5 ||
		p.FixedRTTThreshold != simtime.Duration(10*time.Millisecond) || !p.Unrestricted {
		t.Errorf("params: %+v", p)
	}
	c := sp.Chaos
	if c.NotifyDropRate != 0.01 || c.PollLossRate != 0.01 || c.PortLossRate != 0.01 {
		t.Errorf("loss shorthand not folded in: %+v", c)
	}
	if c.Seed != 7 || c.NotifyDelay != simtime.Duration(time.Millisecond) ||
		c.MonitorKillRate != 0.5 || c.MonitorDownFor != simtime.Duration(2*time.Millisecond) {
		t.Errorf("chaos overlay wrong: %+v", c)
	}
	e := sp.Expect
	if e.MinCulprits != 3 || e.MaxFindings != 8 || e.MinConfidence != 0.5 ||
		e.MaxConfidence != 1 || e.MinPrecision != 0.8 || !e.VictimsAreCollective {
		t.Errorf("expect: %+v", e)
	}
	if len(e.AnomalyTypes) != 1 || e.AnomalyTypes[0] != "incast" {
		t.Errorf("AnomalyTypes = %v", e.AnomalyTypes)
	}
}

func TestAnalyzerdDefaults(t *testing.T) {
	sp, err := Load(filepath.Join("testdata", "good_analyzerd.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Mode != Analyzerd {
		t.Fatalf("Mode = %v", sp.Mode)
	}
	a := sp.Analyzerd
	if a.KillAfter != 12 || a.SnapshotEvery != 4 || a.Fsync != "always" {
		t.Fatalf("analyzerd: %+v", a)
	}

	// Defaults fill in when the section is omitted entirely.
	sp2, err := ParseSpec([]byte("mode: analyzerd\nscenario:\n  anomaly: clean\nexpect:\n  outcome: TP\n"))
	if err != nil {
		t.Fatal(err)
	}
	if sp2.Analyzerd.SnapshotEvery != 4 || sp2.Analyzerd.Fsync != "always" || sp2.Analyzerd.KillAfter != 0 {
		t.Fatalf("analyzerd defaults: %+v", sp2.Analyzerd)
	}

	// The section is rejected outside analyzerd mode.
	_, err = ParseSpec([]byte("scenario:\n  anomaly: clean\nanalyzerd:\n  kill-after: 3\nexpect:\n  outcome: TP\n"))
	if err == nil || !strings.Contains(err.Error(), "requires mode: analyzerd") {
		t.Fatalf("err = %v", err)
	}
}

func TestFleetDecoding(t *testing.T) {
	sp, err := ParseSpec([]byte("mode: fleet\nscenario:\n  anomaly: clean\nfleet:\n  shards: 3\n  kill-shard: 1\n  kill-shard-after: 10\nexpect:\n  outcome: TP\n"))
	if err != nil {
		t.Fatal(err)
	}
	f := sp.Fleet
	if f.Shards != 3 || f.KillShard != 1 || f.KillAfter != 10 || f.HoldShard != Unset {
		t.Fatalf("fleet: %+v", f)
	}
	// Defaults fill in for the durability knobs.
	if f.SnapshotEvery != 4 || f.Fsync != "always" {
		t.Fatalf("fleet defaults: %+v", f)
	}

	sp2, err := ParseSpec([]byte("mode: fleet\nscenario:\n  anomaly: clean\nfleet:\n  shards: 2\n  hold-down-shard: 0\n  snapshot-every: 8\n  fsync: off\nexpect:\n  outcome: TP\n"))
	if err != nil {
		t.Fatal(err)
	}
	f2 := sp2.Fleet
	if f2.Shards != 2 || f2.HoldShard != 0 || f2.KillShard != Unset ||
		f2.SnapshotEvery != 8 || f2.Fsync != "off" {
		t.Fatalf("fleet: %+v", f2)
	}
}

func TestFleetValidationErrors(t *testing.T) {
	fleet := func(body string) string {
		return "mode: fleet\nscenario:\n  anomaly: clean\nfleet:\n" + body + "expect:\n  outcome: TP\n"
	}
	cases := []struct{ name, src, want string }{
		{"section without mode", "scenario:\n  anomaly: clean\nfleet:\n  shards: 2\nexpect:\n  outcome: TP\n",
			`section "fleet" requires mode: fleet`},
		{"mode without section", "mode: fleet\nscenario:\n  anomaly: clean\nexpect:\n  outcome: TP\n",
			`mode fleet requires a "fleet" section`},
		{"missing shards", fleet("  fsync: always\n"), `fleet: missing required key "shards"`},
		{"shards too narrow", fleet("  shards: 1\n"), "fleet width must be in [2, 16], got 1"},
		{"shards too wide", fleet("  shards: 64\n"), "fleet width must be in [2, 16], got 64"},
		{"kill without after", fleet("  shards: 2\n  kill-shard: 0\n"), `key "kill-shard" requires "kill-shard-after"`},
		{"after without kill", fleet("  shards: 2\n  kill-shard-after: 5\n"), `key "kill-shard-after" requires "kill-shard"`},
		{"kill out of range", fleet("  shards: 2\n  kill-shard: 2\n  kill-shard-after: 5\n"),
			"shard index must be in [0, 2), got 2"},
		{"kill and hold", fleet("  shards: 2\n  kill-shard: 0\n  kill-shard-after: 5\n  hold-down-shard: 1\n"),
			`keys "kill-shard" and "hold-down-shard" are mutually exclusive`},
		{"hold out of range", fleet("  shards: 2\n  hold-down-shard: 7\n"), "shard index must be in [0, 2), got 7"},
		{"bad fsync", fleet("  shards: 2\n  fsync: sometimes\n"), `unknown policy "sometimes"`},
		{"unknown key", fleet("  shards: 2\n  sharding: ring\n"), `section "fleet"`},
		{"multi-seed", "mode: fleet\nscenario:\n  anomaly: clean\n  seeds: [1, 2]\nfleet:\n  shards: 2\nexpect:\n  outcome: TP\n",
			"mode fleet requires a single seed"},
		// The live-rebalance, tenant-quota and vnode-count keys are gone: a
		// spec that still carries one is refused at its line, not silently
		// ignored.
		{"bad replicas", fleet("  shards: 2\n  replicas: 0\n"), `line 6: unknown key "replicas" in section "fleet"`},
		{"resize to same width", fleet("  shards: 3\n  resize-to: 3\n"), `line 6: unknown key "resize-to" in section "fleet"`},
		{"resize too wide", fleet("  shards: 2\n  resize-to: 64\n"), `line 6: unknown key "resize-to" in section "fleet"`},
		{"resize-after without resize-to", fleet("  shards: 2\n  resize-after: 5\n"), `line 6: unknown key "resize-after" in section "fleet"`},
		{"resize and hold", fleet("  shards: 3\n  resize-to: 2\n  hold-down-shard: 0\n"), `line 6: unknown key "resize-to" in section "fleet"`},
		{"resize and kill-shard", fleet("  shards: 2\n  kill-shard: 0\n  kill-shard-after: 5\n  resize-to: 3\n"), `line 8: unknown key "resize-to" in section "fleet"`},
		{"kill phase without resize", fleet("  shards: 2\n  rebalance-kill-phase: after-flip\n  rebalance-kill-shard: 0\n"), `line 6: unknown key "rebalance-kill-phase" in section "fleet"`},
		{"unknown kill phase", fleet("  shards: 2\n  resize-to: 3\n  rebalance-kill-phase: mid-air\n  rebalance-kill-shard: 0\n"), `line 6: unknown key "resize-to" in section "fleet"`},
		{"kill phase without shard", fleet("  shards: 2\n  resize-to: 3\n  rebalance-kill-phase: after-flip\n"), `line 6: unknown key "resize-to" in section "fleet"`},
		{"kill shard without phase", fleet("  shards: 2\n  resize-to: 3\n  rebalance-kill-shard: 0\n"), `line 6: unknown key "resize-to" in section "fleet"`},
		{"grow target dead before quiesce", fleet("  shards: 2\n  resize-to: 3\n  rebalance-kill-phase: before-quiesce\n  rebalance-kill-shard: 2\n"), `line 6: unknown key "resize-to" in section "fleet"`},
		{"shrink donor dead after flip", fleet("  shards: 3\n  resize-to: 2\n  rebalance-kill-phase: after-flip\n  rebalance-kill-shard: 2\n"), `line 6: unknown key "resize-to" in section "fleet"`},
		{"tenants without rate", fleet("  shards: 2\n  tenants:\n    burst: 4\n"), `line 6: unknown key "tenants" in section "fleet"`},
		{"zero tenant rate", fleet("  shards: 2\n  tenants:\n    rate: 0\n"), `line 6: unknown key "tenants" in section "fleet"`},
		{"bad tenant burst", fleet("  shards: 2\n  tenants:\n    rate: 5\n    burst: 0\n"), `line 6: unknown key "tenants" in section "fleet"`},
		{"unknown tenants key", fleet("  shards: 2\n  tenants:\n    rate: 5\n    color: blue\n"), `line 6: unknown key "tenants" in section "fleet"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.src))
			if err == nil {
				t.Fatalf("expected an error containing %q, got success", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err.Error(), tc.want)
			}
		})
	}
}

func TestFlowDecoding(t *testing.T) {
	sp, err := Load(filepath.Join("testdata", "good_flows.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	fl := sp.Scenario.Flows
	if len(fl) != 2 {
		t.Fatalf("flows = %+v", fl)
	}
	if fl[0].Src != 8 || fl[0].Dst != 3 || fl[0].MB != 200 || fl[0].StartMS != 10 {
		t.Errorf("flow 0: %+v", fl[0])
	}
	if fl[1].StartMS != 0 {
		t.Errorf("flow 1 start should default to 0: %+v", fl[1])
	}
	if fl[0].Line != 6 || fl[1].Line != 10 {
		t.Errorf("flow lines = %d, %d, want 6, 10", fl[0].Line, fl[1].Line)
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"missing scenario", "expect:\n  outcome: TP\n", `missing required section "scenario"`},
		{"missing anomaly", "scenario:\n  seed: 1\nexpect:\n  outcome: TP\n", `missing required key "anomaly"`},
		{"missing expect", "scenario:\n  anomaly: clean\n", `missing required section "expect"`},
		{"unknown anomaly", "scenario:\n  anomaly: gremlins\nexpect:\n  outcome: TP\n", `unknown anomaly "gremlins"`},
		{"unknown mode", "mode: remote\nscenario:\n  anomaly: clean\nexpect:\n  outcome: TP\n", `unknown mode "remote"`},
		{"seed and seeds", "scenario:\n  anomaly: clean\n  seed: 1\n  seeds: [2]\nexpect:\n  outcome: TP\n", "mutually exclusive"},
		{"odd ranks", "scenario:\n  anomaly: clean\n  ranks: 7\nexpect:\n  outcome: TP\n", "must be even"},
		{"bad rate", "scenario:\n  anomaly: clean\nchaos:\n  loss: 1.5\nexpect:\n  outcome: TP\n", "rate must be in [0, 1]"},
		{"quoted number", "scenario:\n  anomaly: clean\n  seed: \"3\"\nexpect:\n  outcome: TP\n", "quoted scalar where a number"},
		{"min over max", "scenario:\n  anomaly: clean\nexpect:\n  min-findings: 3\n  max-findings: 1\n", "min-findings (3) exceeds max-findings (1)"},
		{"unknown anomaly type", "scenario:\n  anomaly: clean\nexpect:\n  anomaly-types: [gremlins]\n", `unknown anomaly type "gremlins"`},
		{"scalar scenario", "scenario: clean\nexpect:\n  outcome: TP\n", "expected a mapping, got a scalar"},
		{"bad duration", "scenario:\n  anomaly: clean\nparams:\n  fixed-rtt-threshold: fast\nexpect:\n  outcome: TP\n", "cannot parse \"fast\" as a duration"},
		{"bad host", "scenario:\n  anomaly: clean\n  flows:\n    - src: 22\n      dst: 3\n      mb: 10\nexpect:\n  outcome: TP\n", "host ID must be in [0, 15]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.src))
			if err == nil {
				t.Fatalf("expected an error containing %q, got success", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err.Error(), tc.want)
			}
		})
	}
}
