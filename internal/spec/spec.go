package spec

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"vedrfolnir/internal/chaos"
	"vedrfolnir/internal/collective"
	"vedrfolnir/internal/diagnose"
	"vedrfolnir/internal/scenario"
	"vedrfolnir/internal/simtime"
)

// Unset is the sentinel for numeric expectation fields the spec did not
// declare: counts and probabilities are never negative, so -1 means "no
// assertion".
const Unset = -1

// Mode selects how the runner executes a spec.
type Mode uint8

// Execution modes.
const (
	// InProcess runs the scenario and diagnosis inside the runner's own
	// process (the fast path; what CI runs under -race).
	InProcess Mode = iota
	// Analyzerd additionally replays the run's records, reports, and
	// collective flows end-to-end through a real vedranalyzerd process over
	// the seq/ack ReliableClient, asserting the daemon's diagnosis is
	// byte-identical to the in-process one — optionally SIGKILLing and
	// restarting the daemon mid-stream.
	Analyzerd
	// Fleet replays the run through `vedranalyzerd -cluster`: per-host
	// reliable clients stream to a consistent-hash router over N supervised
	// shard daemons, optionally SIGKILLing one shard mid-stream (recovered)
	// or holding one down through the drain (recovered from its WAL).
	Fleet
)

func (m Mode) String() string {
	switch m {
	case InProcess:
		return "in-process"
	case Analyzerd:
		return "analyzerd"
	case Fleet:
		return "fleet"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Flow is one explicitly declared background flow of the anomaly timeline.
// Sizes and start times are quoted at paper scale — the compiler scales
// them by the scenario's workload scale exactly as GenerateCase does.
type Flow struct {
	// Src and Dst are fat-tree host IDs (0–15; hosts 0..ranks-1 are the
	// collective ranks, the rest are bystanders).
	Src, Dst int
	// MB is the flow size in paper-scale megabytes.
	MB float64
	// StartMS is the flow start in paper-scale milliseconds.
	StartMS float64
	// Line is the source line the flow was declared on.
	Line int
}

// Scenario declares the simulated world: topology, collective workload,
// and the anomaly construction (seeded, or an explicit flow timeline).
type Scenario struct {
	// Topology names the fabric; "paper-fattree" (the §IV-A K=4 fat-tree)
	// is the only member of the subset today.
	Topology string
	// Anomaly is the case construction (required).
	Anomaly scenario.AnomalyKind
	// Seeds holds the case seeds: one for a single-case spec, several for
	// a precision/recall cell. Always non-empty after validation.
	Seeds []int64
	// MultiSeed records whether the spec used the `seeds:` list form
	// (which unlocks aggregate expectations).
	MultiSeed bool
	// System is the diagnosis system under test (default vedrfolnir).
	System scenario.SystemKind
	// ScaleDen is the workload scale denominator (default 90: every
	// paper-quoted size and time is multiplied by 1/90).
	ScaleDen float64
	// Ranks is the number of collective participants (default 8).
	Ranks int
	// Op and Alg select the collective (default ring allgather).
	Op  collective.Op
	Alg collective.Algorithm
	// Flows, when non-empty, replaces the seeded anomaly construction with
	// an explicit timeline (flow-contention, incast, and clean only).
	Flows []Flow
}

// Params are the detection-parameter overrides (the Fig 12/13 knobs).
// Zero fields leave the system's default operating point untouched.
type Params struct {
	RTTFactor         float64
	MaxDetectPerStep  int
	FixedRTTThreshold simtime.Duration
	Unrestricted      bool
}

// AnalyzerdSpec tunes the end-to-end mode's daemon.
type AnalyzerdSpec struct {
	// KillAfter, when > 0, SIGKILLs the daemon after that many acked
	// messages and restarts it against the same WAL directory, proving the
	// assertions survive crash recovery.
	KillAfter int
	// SnapshotEvery is the daemon's -snapshot-every (default 4).
	SnapshotEvery int
	// Fsync is the daemon's -fsync policy (default "always").
	Fsync string
}

// FleetSpec tunes the fleet mode's sharded cluster.
type FleetSpec struct {
	// Shards is the fleet width (required, in [2, 16]).
	Shards int
	// KillShard, when not Unset, SIGKILLs that shard after KillAfter acked
	// messages; its supervisor restarts it on its WAL and the runner
	// asserts the merged diagnosis matches an unbroken run.
	KillShard int
	// KillAfter is the fleet-wide acked-message count that triggers the
	// kill (required with KillShard).
	KillAfter int
	// HoldShard, when not Unset, holds that shard down at drain time, so
	// the drain rebuilds it from a WAL with no final snapshot; the runner
	// asserts the same byte-identical diagnosis as for any other fleet
	// spec.
	HoldShard int
	// SnapshotEvery is each shard's -snapshot-every (default 4); Fsync is
	// the -fsync policy (default "always").
	SnapshotEvery int
	Fsync         string
}

// Expect declares the assertions the runner diffs the diagnosis against.
// Numeric fields use Unset (-1) when not declared; string and list fields
// use their zero values.
type Expect struct {
	// Outcome is the paper's per-case verdict ("TP", "FP", "FN"); with a
	// seeds list it must hold for every case.
	Outcome string
	// Completed asserts whether the collective finished before the
	// deadline (nil: no assertion).
	Completed *bool
	// AnomalyTypes asserts that every listed anomaly class appears among
	// the findings (diagnose.AnomalyType names).
	AnomalyTypes []string
	// Finding-count bounds.
	MinFindings, MaxFindings int
	// Culprit-set assertions: CulpritsIncludeInjected requires every
	// injected ground-truth flow among the diagnosed culprits.
	CulpritsIncludeInjected  bool
	MinCulprits, MaxCulprits int
	// Victim assertions over the findings' Affected flows:
	// VictimsAreCollective requires every victim to be a collective flow.
	MinVictims           int
	VictimsAreCollective bool
	// Coverage/Confidence bounds on the diagnosis (degraded-telemetry
	// specs assert < 1).
	MinConfidence, MaxConfidence float64
	// RootLocalized asserts the PFC root was traced to the ground-truth
	// switch/port (pfc-storm and pfc-backpressure only).
	RootLocalized bool
	// Aggregate expectations over a seeds list (exact or lower-bounded).
	Precision, Recall       float64
	MinPrecision, MinRecall float64
}

// Spec is one fully validated scenario spec.
type Spec struct {
	Name        string
	Description string
	Mode        Mode
	Scenario    Scenario
	Params      Params
	// Chaos is the resolved fault-injection config (the `loss:` uniform
	// shorthand already folded in).
	Chaos     chaos.Config
	Analyzerd AnalyzerdSpec
	Fleet     FleetSpec
	Expect    Expect
}

// Load reads and parses one spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseSpec(data)
}

// ParseSpec parses, decodes, defaults, and validates one spec document.
// All errors carry the 1-based source line.
func ParseSpec(data []byte) (*Spec, error) {
	root, err := Parse(data)
	if err != nil {
		return nil, err
	}
	sp := &Spec{}
	if err := specTable.decode(root, sp); err != nil {
		return nil, err
	}
	if err := validate(sp, root); err != nil {
		return nil, err
	}
	return sp, nil
}

// A table decodes one mapping: def is the section's value before any key
// is read (the defaults), and each row decodes one key, in order.
// Unknown keys are refused after the last row, naming the section.
type table[T any] struct {
	section string
	def     T
	rows    []row[T]
}

// row is one key. missing, when set, is the error for an absent key,
// reported at the mapping's line; store parses, bounds and assigns a
// present one.
type row[T any] struct {
	key     string
	missing string
	store   func(field, *T) error
}

func (t *table[T]) decode(n *Node, v *T) error {
	*v = t.def
	for _, r := range t.rows {
		switch f := (field{key: r.key, n: n.Get(r.key)}); {
		case f.n != nil:
			if err := r.store(f, v); err != nil {
				return err
			}
		case r.missing != "":
			return errAt(n.Line, "%s", r.missing)
		}
	}
	for _, e := range n.Entries {
		if !slices.ContainsFunc(t.rows, func(r row[T]) bool { return r.key == e.Key }) {
			return errAt(e.Line, "unknown key %q in %s", e.Key, t.section)
		}
	}
	return nil
}

// field is one present key's value node.
type field struct {
	key string
	n   *Node
}

func (f field) errf(format string, args ...any) error {
	return errAt(f.n.Line, "key %q: %s", f.key, fmt.Sprintf(format, args...))
}

func (f field) scalar() (string, error) {
	if f.n.Kind != ScalarNode {
		return "", f.errf("expected a scalar, got a %s", f.n.Kind)
	}
	return f.n.Value, nil
}

// number is scalar for a numeric or bool key: a quoted scalar is a string.
func (f field) number() (string, error) {
	s, err := f.scalar()
	if err == nil && f.n.Quoted {
		return "", f.errf("quoted scalar where a number is expected")
	}
	return s, err
}

// unless is a bound: the error text for a value that fails ok, else "".
func unless(ok bool, format string, args ...any) string {
	if ok {
		return ""
	}
	return fmt.Sprintf(format, args...)
}

func check[V any](f field, v V, bound func(V) string) error {
	if bound != nil {
		if msg := bound(v); msg != "" {
			return f.errf("%s", msg)
		}
	}
	return nil
}

func text(f field, dst *string) error {
	s, err := f.scalar()
	if err == nil {
		*dst = s
	}
	return err
}

func integer[I int | int64](f field, dst *I, bound func(int64) string) error {
	s, err := f.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return f.errf("cannot parse %q as an integer", s)
	}
	if err := check(f, v, bound); err != nil {
		return err
	}
	*dst = I(v)
	return nil
}

func float(f field, dst *float64, bound func(float64) string) error {
	s, err := f.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return f.errf("cannot parse %q as a number", s)
	}
	if err := check(f, v, bound); err != nil {
		return err
	}
	*dst = v
	return nil
}

func boolean(f field, dst *bool) error {
	s, err := f.number()
	if err != nil {
		return err
	}
	if s != "true" && s != "false" {
		return f.errf("cannot parse %q as a bool (true/false)", s)
	}
	*dst = s == "true"
	return nil
}

// duration reads a Go duration string ("10ms", "1.5s").
func duration(f field, dst *simtime.Duration, bound func(time.Duration) string) error {
	s, err := f.scalar()
	if err != nil {
		return err
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return f.errf("cannot parse %q as a duration (e.g. \"10ms\")", s)
	}
	if err := check(f, v, bound); err != nil {
		return err
	}
	*dst = simtime.Duration(v)
	return nil
}

// enum reads one of values by its String(); the error lists the accepted
// names in order.
func enum[K fmt.Stringer](f field, dst *K, what string, values ...K) error {
	s, err := f.scalar()
	if err != nil {
		return err
	}
	names := make([]string, len(values))
	for i, k := range values {
		if names[i] = k.String(); names[i] == s {
			*dst = k
			return nil
		}
	}
	return f.errf("unknown %s %q (%s)", what, s, strings.Join(names, ", "))
}

// word is a string enum value.
type word string

func (w word) String() string { return string(w) }

// list reads a sequence item by item; empty, when set, refuses an empty
// one.
func list(f field, empty string, item func(field) error) error {
	if f.n.Kind != SequenceNode {
		return f.errf("expected a sequence, got a %s", f.n.Kind)
	}
	if empty != "" && len(f.n.Items) == 0 {
		return f.errf("%s", empty)
	}
	for _, it := range f.n.Items {
		if err := item(field{key: f.key, n: it}); err != nil {
			return err
		}
	}
	return nil
}

// section decodes a nested mapping.
func section[T any](f field, t *table[T], dst *T) error {
	if f.n.Kind != MappingNode {
		return f.errf("expected a mapping, got a %s", f.n.Kind)
	}
	return t.decode(f.n, dst)
}

// inMode decodes a mode's own section only under that mode; validate
// refuses it under any other.
func inMode[T any](f field, sp *Spec, mode Mode, t *table[T], dst *T) error {
	if sp.Mode != mode && f.n.Kind == MappingNode {
		return nil
	}
	return section(f, t, dst)
}

// Bounds shared by several rows.
var (
	positive  = func(v int64) string { return unless(v > 0, "must be > 0, got %d", v) }
	count     = func(v int64) string { return unless(v >= 0, "count must be >= 0, got %d", v) }
	rate      = func(v float64) string { return unless(v >= 0 && v <= 1, "rate must be in [0, 1], got %v", v) }
	fraction  = func(v float64) string { return unless(v >= 0 && v <= 1, "must be in [0, 1], got %v", v) }
	hostID    = func(v int64) string { return unless(v >= 0 && v <= 15, "host ID must be in [0, 15], got %d", v) }
	lasting   = func(v time.Duration) string { return unless(v >= 0, "duration must be >= 0, got %v", v) }
	policies  = []word{"always", "interval", "off"}
	anomalies = []scenario.AnomalyKind{
		scenario.Contention, scenario.Incast, scenario.PFCStorm,
		scenario.PFCBackpressure, scenario.Loop, scenario.LoadImbalance, scenario.Clean,
	}
	anomalyTypes = []diagnose.AnomalyType{
		diagnose.FlowContention, diagnose.Incast, diagnose.PFCBackpressure,
		diagnose.PFCStorm, diagnose.ForwardingLoop, diagnose.PFCDeadlock,
	}
)

var specTable = &table[Spec]{
	section: "the spec",
	def:     Spec{Fleet: FleetSpec{KillShard: Unset, HoldShard: Unset}},
	rows: []row[Spec]{
		{"name", "", func(f field, sp *Spec) error { return text(f, &sp.Name) }},
		{"description", "", func(f field, sp *Spec) error { return text(f, &sp.Description) }},
		{"mode", "", func(f field, sp *Spec) error { return enum(f, &sp.Mode, "mode", InProcess, Analyzerd, Fleet) }},
		{"scenario", `missing required section "scenario"`, func(f field, sp *Spec) error { return section(f, scenarioTable, &sp.Scenario) }},
		{"params", "", func(f field, sp *Spec) error { return section(f, paramsTable, &sp.Params) }},
		{"chaos", "", func(f field, sp *Spec) error { return section(f, chaosTable, &sp.Chaos) }},
		{"analyzerd", "", func(f field, sp *Spec) error { return inMode(f, sp, Analyzerd, analyzerdTable, &sp.Analyzerd) }},
		{"fleet", "", func(f field, sp *Spec) error { return inMode(f, sp, Fleet, fleetTable, &sp.Fleet) }},
		{"expect", `missing required section "expect" (a spec with no assertions tests nothing)`,
			func(f field, sp *Spec) error { return section(f, expectTable, &sp.Expect) }},
	},
}

var scenarioTable = &table[Scenario]{
	section: `section "scenario"`,
	def: Scenario{Topology: "paper-fattree", System: scenario.Vedrfolnir, ScaleDen: 90, Ranks: 8,
		Op: collective.AllGather, Alg: collective.Ring},
	rows: []row[Scenario]{
		{"topology", "", func(f field, s *Scenario) error { return enum(f, (*word)(&s.Topology), "topology", "paper-fattree") }},
		{"anomaly", `scenario: missing required key "anomaly"`, func(f field, s *Scenario) error {
			return enum(f, &s.Anomaly, "anomaly", anomalies...)
		}},
		{"seed", "", func(f field, s *Scenario) error {
			s.Seeds = []int64{0}
			return integer(f, &s.Seeds[0], nil)
		}},
		{"seeds", "", func(f field, s *Scenario) error {
			s.MultiSeed = true
			return list(f, "empty seed list", func(it field) error {
				v, err := it.scalar()
				if err != nil {
					return err
				}
				seed, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					return it.errf("cannot parse %q as an integer", v)
				}
				s.Seeds = append(s.Seeds, seed)
				return nil
			})
		}},
		{"system", "", func(f field, s *Scenario) error {
			return enum(f, &s.System, "system",
				scenario.Vedrfolnir, scenario.HawkeyeMaxR, scenario.HawkeyeMinR, scenario.FullPolling)
		}},
		{"scale", "", func(f field, s *Scenario) error {
			return float(f, &s.ScaleDen, func(v float64) string {
				return unless(v > 0, "scale denominator must be > 0, got %v", v)
			})
		}},
		{"ranks", "", func(f field, s *Scenario) error {
			return integer(f, &s.Ranks, func(v int64) string {
				return unless(v >= 2 && v <= 16 && v%2 == 0, "ranks must be even and in [2, 16], got %d", v)
			})
		}},
		{"op", "", func(f field, s *Scenario) error {
			return enum(f, &s.Op, "collective op", collective.AllGather, collective.ReduceScatter, collective.AllReduce)
		}},
		{"alg", "", func(f field, s *Scenario) error {
			return enum(f, &s.Alg, "algorithm", collective.Ring, collective.HalvingDoubling)
		}},
		{"flows", "", func(f field, s *Scenario) error {
			return list(f, "empty flow list (omit the key instead)", func(it field) error {
				if it.n.Kind != MappingNode {
					return it.errf("each flow is a mapping (src/dst/mb/start-ms)")
				}
				var fl Flow
				if err := flowTable.decode(it.n, &fl); err != nil {
					return err
				}
				fl.Line = it.n.Line
				s.Flows = append(s.Flows, fl)
				return nil
			})
		}},
	},
}

var flowTable = &table[Flow]{
	section: "a flow",
	rows: []row[Flow]{
		{"src", `flow: missing required key "src"`, func(f field, fl *Flow) error { return integer(f, &fl.Src, hostID) }},
		{"dst", `flow: missing required key "dst"`, func(f field, fl *Flow) error {
			if err := integer(f, &fl.Dst, hostID); err != nil {
				return err
			}
			if fl.Dst == fl.Src {
				return errAt(f.n.Line, "flow: src and dst are both host %d", fl.Dst)
			}
			return nil
		}},
		{"mb", `flow: missing required key "mb"`, func(f field, fl *Flow) error {
			return float(f, &fl.MB, func(v float64) string { return unless(v > 0, "flow size must be > 0 MB, got %v", v) })
		}},
		{"start-ms", "", func(f field, fl *Flow) error {
			return float(f, &fl.StartMS, func(v float64) string { return unless(v >= 0, "start must be >= 0 ms, got %v", v) })
		}},
	},
}

var paramsTable = &table[Params]{
	section: `section "params"`,
	rows: []row[Params]{
		{"rtt-factor", "", func(f field, p *Params) error {
			return float(f, &p.RTTFactor, func(v float64) string { return unless(v > 0, "must be > 0, got %v", v) })
		}},
		{"max-detect-per-step", "", func(f field, p *Params) error { return integer(f, &p.MaxDetectPerStep, positive) }},
		{"fixed-rtt-threshold", "", func(f field, p *Params) error {
			return duration(f, &p.FixedRTTThreshold, func(v time.Duration) string { return unless(v > 0, "must be > 0, got %v", v) })
		}},
		{"unrestricted", "", func(f field, p *Params) error { return boolean(f, &p.Unrestricted) }},
	},
}

var chaosTable = &table[chaos.Config]{
	section: `section "chaos"`,
	rows: []row[chaos.Config]{
		// loss is the uniform shorthand; the keys after it refine it.
		{"loss", "", func(f field, c *chaos.Config) error {
			var loss float64
			err := float(f, &loss, rate)
			*c = chaos.UniformLoss(loss)
			return err
		}},
		{"seed", "", func(f field, c *chaos.Config) error { return integer(f, &c.Seed, nil) }},
		{"notify-drop-rate", "", func(f field, c *chaos.Config) error { return float(f, &c.NotifyDropRate, rate) }},
		{"notify-dup-rate", "", func(f field, c *chaos.Config) error { return float(f, &c.NotifyDupRate, rate) }},
		{"notify-delay-rate", "", func(f field, c *chaos.Config) error { return float(f, &c.NotifyDelayRate, rate) }},
		{"notify-delay", "", func(f field, c *chaos.Config) error { return duration(f, &c.NotifyDelay, lasting) }},
		{"poll-loss-rate", "", func(f field, c *chaos.Config) error { return float(f, &c.PollLossRate, rate) }},
		{"port-loss-rate", "", func(f field, c *chaos.Config) error { return float(f, &c.PortLossRate, rate) }},
		{"monitor-kill-rate", "", func(f field, c *chaos.Config) error { return float(f, &c.MonitorKillRate, rate) }},
		{"monitor-kill-window", "", func(f field, c *chaos.Config) error { return duration(f, &c.MonitorKillWindow, lasting) }},
		{"monitor-down-for", "", func(f field, c *chaos.Config) error { return duration(f, &c.MonitorDownFor, lasting) }},
	},
}

var analyzerdTable = &table[AnalyzerdSpec]{
	section: `section "analyzerd"`,
	def:     AnalyzerdSpec{SnapshotEvery: 4, Fsync: "always"},
	rows: []row[AnalyzerdSpec]{
		{"kill-after", "", func(f field, a *AnalyzerdSpec) error {
			return integer(f, &a.KillAfter, func(v int64) string {
				return unless(v > 0, "must be > 0 acked messages, got %d", v)
			})
		}},
		{"snapshot-every", "", func(f field, a *AnalyzerdSpec) error { return integer(f, &a.SnapshotEvery, positive) }},
		{"fsync", "", func(f field, a *AnalyzerdSpec) error { return enum(f, (*word)(&a.Fsync), "policy", policies...) }},
	},
}

// The kill-shard-after bound and hold-down-shard's range wait for
// validate, which checks the fleet's key pairings first.
var fleetTable = &table[FleetSpec]{
	section: `section "fleet"`,
	def:     FleetSpec{KillShard: Unset, HoldShard: Unset, SnapshotEvery: 4, Fsync: "always"},
	rows: []row[FleetSpec]{
		{"shards", `fleet: missing required key "shards"`, func(f field, fs *FleetSpec) error {
			return integer(f, &fs.Shards, func(v int64) string {
				return unless(v >= 2 && v <= 16, "fleet width must be in [2, 16], got %d", v)
			})
		}},
		{"kill-shard", "", func(f field, fs *FleetSpec) error {
			return integer(f, &fs.KillShard, func(v int64) string {
				return unless(v >= 0 && v < int64(fs.Shards), "shard index must be in [0, %d), got %d", fs.Shards, v)
			})
		}},
		{"kill-shard-after", "", func(f field, fs *FleetSpec) error { return integer(f, &fs.KillAfter, nil) }},
		{"hold-down-shard", "", func(f field, fs *FleetSpec) error { return integer(f, &fs.HoldShard, nil) }},
		{"snapshot-every", "", func(f field, fs *FleetSpec) error { return integer(f, &fs.SnapshotEvery, positive) }},
		{"fsync", "", func(f field, fs *FleetSpec) error { return enum(f, (*word)(&fs.Fsync), "policy", policies...) }},
	},
}

var expectTable = &table[Expect]{
	section: `section "expect"`,
	def: Expect{MinFindings: Unset, MaxFindings: Unset, MinCulprits: Unset, MaxCulprits: Unset,
		MinVictims: Unset, MinConfidence: Unset, MaxConfidence: Unset,
		Precision: Unset, Recall: Unset, MinPrecision: Unset, MinRecall: Unset},
	rows: []row[Expect]{
		{"outcome", "", func(f field, e *Expect) error {
			var o scenario.Outcome
			err := enum(f, &o, "outcome", scenario.TP, scenario.FP, scenario.FN)
			e.Outcome = o.String()
			return err
		}},
		{"completed", "", func(f field, e *Expect) error {
			e.Completed = new(bool)
			return boolean(f, e.Completed)
		}},
		{"anomaly-types", "", func(f field, e *Expect) error {
			return list(f, "", func(it field) error {
				var t diagnose.AnomalyType
				err := enum(it, &t, "anomaly type", anomalyTypes...)
				if err == nil {
					e.AnomalyTypes = append(e.AnomalyTypes, t.String())
				}
				return err
			})
		}},
		{"min-findings", "", func(f field, e *Expect) error { return integer(f, &e.MinFindings, count) }},
		{"max-findings", "", func(f field, e *Expect) error { return integer(f, &e.MaxFindings, count) }},
		{"culprits-include-injected", "", func(f field, e *Expect) error { return boolean(f, &e.CulpritsIncludeInjected) }},
		{"min-culprits", "", func(f field, e *Expect) error { return integer(f, &e.MinCulprits, count) }},
		{"max-culprits", "", func(f field, e *Expect) error { return integer(f, &e.MaxCulprits, count) }},
		{"min-victims", "", func(f field, e *Expect) error { return integer(f, &e.MinVictims, count) }},
		{"victims-are-collective", "", func(f field, e *Expect) error { return boolean(f, &e.VictimsAreCollective) }},
		{"min-confidence", "", func(f field, e *Expect) error { return float(f, &e.MinConfidence, fraction) }},
		{"max-confidence", "", func(f field, e *Expect) error { return float(f, &e.MaxConfidence, fraction) }},
		{"root-localized", "", func(f field, e *Expect) error { return boolean(f, &e.RootLocalized) }},
		{"precision", "", func(f field, e *Expect) error { return float(f, &e.Precision, fraction) }},
		{"recall", "", func(f field, e *Expect) error { return float(f, &e.Recall, fraction) }},
		{"min-precision", "", func(f field, e *Expect) error { return float(f, &e.MinPrecision, fraction) }},
		{"min-recall", "", func(f field, e *Expect) error { return float(f, &e.MinRecall, fraction) }},
	},
}

// validate applies the rules that span keys or sections, after every row
// has decoded.
func validate(sp *Spec, root *Node) error {
	s := &sp.Scenario
	at := func(n *Node, key string) *Node {
		if n == nil {
			return nil
		}
		return n.Get(key)
	}
	scen, fleet := root.Get("scenario"), root.Get("fleet")
	expectLine := root.Get("expect").Line
	if seed := at(scen, "seed"); seed != nil && s.MultiSeed {
		return errAt(seed.Line, "keys \"seed\" and \"seeds\" are mutually exclusive")
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []int64{1}
	}
	for _, m := range []Mode{Analyzerd, Fleet} {
		if n := root.Get(m.String()); n != nil && sp.Mode != m {
			return errAt(n.Line, "section %q requires mode: %s", m.String(), m)
		}
	}
	if sp.Mode == Analyzerd && root.Get("analyzerd") == nil {
		sp.Analyzerd = analyzerdTable.def
	}
	if sp.Mode == Fleet {
		f := sp.Fleet
		ks, ka, hold := at(fleet, "kill-shard"), at(fleet, "kill-shard-after"), at(fleet, "hold-down-shard")
		switch {
		case fleet == nil:
			return errAt(root.Line, "mode fleet requires a \"fleet\" section (at least \"shards\")")
		case ka != nil && ks == nil:
			return errAt(ka.Line, "key \"kill-shard-after\" requires \"kill-shard\"")
		case ka != nil && f.KillAfter <= 0:
			return errAt(ka.Line, "key \"kill-shard-after\": must be > 0 acked messages, got %d", f.KillAfter)
		case ks != nil && ka == nil:
			return errAt(ks.Line, "key \"kill-shard\" requires \"kill-shard-after\"")
		case hold != nil && ks != nil:
			return errAt(hold.Line, "keys \"kill-shard\" and \"hold-down-shard\" are mutually exclusive")
		case hold != nil && (f.HoldShard < 0 || f.HoldShard >= f.Shards):
			return errAt(hold.Line, "key \"hold-down-shard\": shard index must be in [0, %d), got %d", f.Shards, f.HoldShard)
		}
	}

	if len(s.Flows) > 0 {
		switch s.Anomaly {
		case scenario.Contention, scenario.Incast, scenario.Clean:
		default:
			return errAt(s.Flows[0].Line, "explicit flows are only supported for flow-contention, incast, and clean (anomaly is %s)", s.Anomaly)
		}
	}
	if (sp.Mode == Analyzerd || sp.Mode == Fleet) && s.MultiSeed {
		return errAt(expectLine, "mode %s requires a single seed (use \"seed:\", not \"seeds:\")", sp.Mode)
	}

	e := sp.Expect
	hasAggregate := e.Precision != Unset || e.Recall != Unset ||
		e.MinPrecision != Unset || e.MinRecall != Unset
	if hasAggregate && !s.MultiSeed {
		return errAt(expectLine, "aggregate expectations (precision/recall) require a \"seeds:\" list")
	}
	hasAny := hasAggregate || e.Outcome != "" || e.Completed != nil ||
		len(e.AnomalyTypes) > 0 ||
		e.MinFindings != Unset || e.MaxFindings != Unset ||
		e.CulpritsIncludeInjected ||
		e.MinCulprits != Unset || e.MaxCulprits != Unset ||
		e.MinVictims != Unset || e.VictimsAreCollective ||
		e.MinConfidence != Unset || e.MaxConfidence != Unset ||
		e.RootLocalized
	if !hasAny && sp.Mode == InProcess {
		return errAt(expectLine, "section \"expect\" declares no assertions")
	}
	if e.RootLocalized && s.Anomaly != scenario.PFCStorm && s.Anomaly != scenario.PFCBackpressure {
		return errAt(expectLine, "root-localized only applies to pfc-storm and pfc-backpressure (anomaly is %s)", s.Anomaly)
	}
	if e.MinFindings != Unset && e.MaxFindings != Unset && e.MinFindings > e.MaxFindings {
		return errAt(expectLine, "min-findings (%d) exceeds max-findings (%d)", e.MinFindings, e.MaxFindings)
	}
	if e.MinCulprits != Unset && e.MaxCulprits != Unset && e.MinCulprits > e.MaxCulprits {
		return errAt(expectLine, "min-culprits (%d) exceeds max-culprits (%d)", e.MinCulprits, e.MaxCulprits)
	}
	if e.MinConfidence != Unset && e.MaxConfidence != Unset && e.MinConfidence > e.MaxConfidence {
		return errAt(expectLine, "min-confidence (%v) exceeds max-confidence (%v)", e.MinConfidence, e.MaxConfidence)
	}
	return nil
}
