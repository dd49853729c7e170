package spec

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"vedrfolnir/internal/chaos"
	"vedrfolnir/internal/collective"
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
	// or holding one down through the drain (degraded diagnosis).
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
	// Replicas is the consistent-hash vnode count per shard (0 = default).
	Replicas int
	// KillShard, when not Unset, SIGKILLs that shard after KillAfter acked
	// messages; its supervisor restarts it on its WAL and the runner
	// asserts the merged diagnosis matches an unbroken run.
	KillShard int
	// KillAfter is the fleet-wide acked-message count that triggers the
	// kill (required with KillShard).
	KillAfter int
	// HoldShard, when not Unset, holds that shard down at drain time; the
	// runner asserts a degraded (confidence < 1) diagnosis.
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
	return decodeSpec(root)
}

// dec decodes one mapping node with consumed-key tracking, so any key the
// schema does not know is reported with its line.
type dec struct {
	n    *Node
	used map[string]bool
}

func newDec(n *Node) *dec { return &dec{n: n, used: make(map[string]bool)} }

// entry marks a key consumed and returns its value node (nil if absent).
func (d *dec) entry(key string) *Node {
	d.used[key] = true
	return d.n.Get(key)
}

// finish errors on the first unconsumed (unknown) key, in source order.
func (d *dec) finish(section string) error {
	for _, e := range d.n.Entries {
		if !d.used[e.Key] {
			return errAt(e.Line, "unknown key %q in %s", e.Key, section)
		}
	}
	return nil
}

func scalarOf(n *Node, key string) (*Node, error) {
	if n.Kind != ScalarNode {
		return nil, errAt(n.Line, "key %q: expected a scalar, got a %s", key, n.Kind)
	}
	return n, nil
}

func (d *dec) str(key string) (string, int, bool, error) {
	n := d.entry(key)
	if n == nil {
		return "", 0, false, nil
	}
	s, err := scalarOf(n, key)
	if err != nil {
		return "", 0, false, err
	}
	return s.Value, s.Line, true, nil
}

func (d *dec) num(key string) (*Node, error) {
	n := d.entry(key)
	if n == nil {
		return nil, nil
	}
	s, err := scalarOf(n, key)
	if err != nil {
		return nil, err
	}
	if s.Quoted {
		return nil, errAt(s.Line, "key %q: quoted scalar where a number is expected", key)
	}
	return s, nil
}

func (d *dec) intVal(key string) (int64, int, bool, error) {
	s, err := d.num(key)
	if s == nil || err != nil {
		return 0, 0, false, err
	}
	v, perr := strconv.ParseInt(s.Value, 10, 64)
	if perr != nil {
		return 0, 0, false, errAt(s.Line, "key %q: cannot parse %q as an integer", key, s.Value)
	}
	return v, s.Line, true, nil
}

func (d *dec) floatVal(key string) (float64, int, bool, error) {
	s, err := d.num(key)
	if s == nil || err != nil {
		return 0, 0, false, err
	}
	v, perr := strconv.ParseFloat(s.Value, 64)
	if perr != nil {
		return 0, 0, false, errAt(s.Line, "key %q: cannot parse %q as a number", key, s.Value)
	}
	return v, s.Line, true, nil
}

func (d *dec) boolVal(key string) (bool, int, bool, error) {
	s, err := d.num(key)
	if s == nil || err != nil {
		return false, 0, false, err
	}
	switch s.Value {
	case "true":
		return true, s.Line, true, nil
	case "false":
		return false, s.Line, true, nil
	}
	return false, 0, false, errAt(s.Line, "key %q: cannot parse %q as a bool (true/false)", key, s.Value)
}

// durVal parses a Go duration string ("10ms", "1.5s").
func (d *dec) durVal(key string) (time.Duration, int, bool, error) {
	n := d.entry(key)
	if n == nil {
		return 0, 0, false, nil
	}
	s, err := scalarOf(n, key)
	if err != nil {
		return 0, 0, false, err
	}
	v, perr := time.ParseDuration(s.Value)
	if perr != nil {
		return 0, 0, false, errAt(s.Line, "key %q: cannot parse %q as a duration (e.g. \"10ms\")", key, s.Value)
	}
	return v, s.Line, true, nil
}

func (d *dec) mapping(key string) (*dec, error) {
	n := d.entry(key)
	if n == nil {
		return nil, nil
	}
	if n.Kind != MappingNode {
		return nil, errAt(n.Line, "key %q: expected a mapping, got a %s", key, n.Kind)
	}
	return newDec(n), nil
}

func (d *dec) sequence(key string) (*Node, error) {
	n := d.entry(key)
	if n == nil {
		return nil, nil
	}
	if n.Kind != SequenceNode {
		return nil, errAt(n.Line, "key %q: expected a sequence, got a %s", key, n.Kind)
	}
	return n, nil
}

func decodeSpec(root *Node) (*Spec, error) {
	d := newDec(root)
	sp := &Spec{}
	var err error
	if sp.Name, _, _, err = d.str("name"); err != nil {
		return nil, err
	}
	if sp.Description, _, _, err = d.str("description"); err != nil {
		return nil, err
	}
	mode, line, ok, err := d.str("mode")
	if err != nil {
		return nil, err
	}
	if ok {
		switch mode {
		case "in-process":
			sp.Mode = InProcess
		case "analyzerd":
			sp.Mode = Analyzerd
		case "fleet":
			sp.Mode = Fleet
		default:
			return nil, errAt(line, "key \"mode\": unknown mode %q (in-process, analyzerd, fleet)", mode)
		}
	}

	sc, err := d.mapping("scenario")
	if err != nil {
		return nil, err
	}
	if sc == nil {
		return nil, errAt(root.Line, "missing required section \"scenario\"")
	}
	if err := decodeScenario(sc, sp); err != nil {
		return nil, err
	}

	pm, err := d.mapping("params")
	if err != nil {
		return nil, err
	}
	if pm != nil {
		if err := decodeParams(pm, sp); err != nil {
			return nil, err
		}
	}

	ch, err := d.mapping("chaos")
	if err != nil {
		return nil, err
	}
	if ch != nil {
		if err := decodeChaos(ch, sp); err != nil {
			return nil, err
		}
	}

	an, err := d.mapping("analyzerd")
	if err != nil {
		return nil, err
	}
	if an != nil {
		if sp.Mode != Analyzerd {
			return nil, errAt(an.n.Line, "section \"analyzerd\" requires mode: analyzerd")
		}
		if err := decodeAnalyzerd(an, sp); err != nil {
			return nil, err
		}
	}
	if sp.Mode == Analyzerd {
		if sp.Analyzerd.SnapshotEvery == 0 {
			sp.Analyzerd.SnapshotEvery = 4
		}
		if sp.Analyzerd.Fsync == "" {
			sp.Analyzerd.Fsync = "always"
		}
	}

	fl, err := d.mapping("fleet")
	if err != nil {
		return nil, err
	}
	sp.Fleet.KillShard, sp.Fleet.HoldShard = Unset, Unset
	if fl != nil {
		if sp.Mode != Fleet {
			return nil, errAt(fl.n.Line, "section \"fleet\" requires mode: fleet")
		}
		if err := decodeFleet(fl, sp); err != nil {
			return nil, err
		}
	}
	if sp.Mode == Fleet {
		if fl == nil {
			return nil, errAt(root.Line, "mode fleet requires a \"fleet\" section (at least \"shards\")")
		}
		if sp.Fleet.SnapshotEvery == 0 {
			sp.Fleet.SnapshotEvery = 4
		}
		if sp.Fleet.Fsync == "" {
			sp.Fleet.Fsync = "always"
		}
	}

	ex, err := d.mapping("expect")
	if err != nil {
		return nil, err
	}
	if ex == nil {
		return nil, errAt(root.Line, "missing required section \"expect\" (a spec with no assertions tests nothing)")
	}
	exLine := ex.n.Line
	if err := decodeExpect(ex, sp); err != nil {
		return nil, err
	}

	if err := d.finish("the spec"); err != nil {
		return nil, err
	}
	if err := validate(sp, exLine); err != nil {
		return nil, err
	}
	return sp, nil
}

func decodeScenario(d *dec, sp *Spec) error {
	s := &sp.Scenario

	topo, line, ok, err := d.str("topology")
	if err != nil {
		return err
	}
	s.Topology = "paper-fattree"
	if ok && topo != "paper-fattree" {
		return errAt(line, "key \"topology\": unknown topology %q (paper-fattree)", topo)
	}

	anom, line, ok, err := d.str("anomaly")
	if err != nil {
		return err
	}
	if !ok {
		return errAt(d.n.Line, "scenario: missing required key \"anomaly\"")
	}
	kind, known := ParseAnomaly(anom)
	if !known {
		return errAt(line, "key \"anomaly\": unknown anomaly %q (%s)", anom, anomalyNames())
	}
	s.Anomaly = kind

	seed, seedLine, hasSeed, err := d.intVal("seed")
	if err != nil {
		return err
	}
	seqNode, err := d.sequence("seeds")
	if err != nil {
		return err
	}
	switch {
	case hasSeed && seqNode != nil:
		return errAt(seedLine, "keys \"seed\" and \"seeds\" are mutually exclusive")
	case seqNode != nil:
		if len(seqNode.Items) == 0 {
			return errAt(seqNode.Line, "key \"seeds\": empty seed list")
		}
		s.MultiSeed = true
		for _, item := range seqNode.Items {
			sc, err := scalarOf(item, "seeds")
			if err != nil {
				return err
			}
			v, perr := strconv.ParseInt(sc.Value, 10, 64)
			if perr != nil {
				return errAt(sc.Line, "key \"seeds\": cannot parse %q as an integer", sc.Value)
			}
			s.Seeds = append(s.Seeds, v)
		}
	case hasSeed:
		s.Seeds = []int64{seed}
	default:
		s.Seeds = []int64{1}
	}

	sys, line, ok, err := d.str("system")
	if err != nil {
		return err
	}
	if ok {
		k, known := ParseSystem(sys)
		if !known {
			return errAt(line, "key \"system\": unknown system %q (vedrfolnir, hawkeye-maxr, hawkeye-minr, full-polling)", sys)
		}
		s.System = k
	} else {
		s.System = scenario.Vedrfolnir
	}

	scale, line, ok, err := d.floatVal("scale")
	if err != nil {
		return err
	}
	s.ScaleDen = 90
	if ok {
		if scale <= 0 {
			return errAt(line, "key \"scale\": scale denominator must be > 0, got %v", scale)
		}
		s.ScaleDen = scale
	}

	ranks, line, ok, err := d.intVal("ranks")
	if err != nil {
		return err
	}
	s.Ranks = 8
	if ok {
		if ranks < 2 || ranks > 16 || ranks%2 != 0 {
			return errAt(line, "key \"ranks\": ranks must be even and in [2, 16], got %d", ranks)
		}
		s.Ranks = int(ranks)
	}

	op, line, ok, err := d.str("op")
	if err != nil {
		return err
	}
	s.Op = collective.AllGather
	if ok {
		k, known := ParseOp(op)
		if !known {
			return errAt(line, "key \"op\": unknown collective op %q (allgather, reducescatter, allreduce)", op)
		}
		s.Op = k
	}

	alg, line, ok, err := d.str("alg")
	if err != nil {
		return err
	}
	s.Alg = collective.Ring
	if ok {
		k, known := ParseAlg(alg)
		if !known {
			return errAt(line, "key \"alg\": unknown algorithm %q (ring, halving-doubling)", alg)
		}
		s.Alg = k
	}

	flows, err := d.sequence("flows")
	if err != nil {
		return err
	}
	if flows != nil {
		if len(flows.Items) == 0 {
			return errAt(flows.Line, "key \"flows\": empty flow list (omit the key instead)")
		}
		for _, item := range flows.Items {
			if item.Kind != MappingNode {
				return errAt(item.Line, "key \"flows\": each flow is a mapping (src/dst/mb/start-ms)")
			}
			f, err := decodeFlow(newDec(item))
			if err != nil {
				return err
			}
			s.Flows = append(s.Flows, f)
		}
	}

	return d.finish("section \"scenario\"")
}

func decodeFlow(d *dec) (Flow, error) {
	f := Flow{Line: d.n.Line}
	src, line, ok, err := d.intVal("src")
	if err != nil {
		return f, err
	}
	if !ok {
		return f, errAt(d.n.Line, "flow: missing required key \"src\"")
	}
	if src < 0 || src > 15 {
		return f, errAt(line, "key \"src\": host ID must be in [0, 15], got %d", src)
	}
	f.Src = int(src)

	dst, line, ok, err := d.intVal("dst")
	if err != nil {
		return f, err
	}
	if !ok {
		return f, errAt(d.n.Line, "flow: missing required key \"dst\"")
	}
	if dst < 0 || dst > 15 {
		return f, errAt(line, "key \"dst\": host ID must be in [0, 15], got %d", dst)
	}
	if dst == src {
		return f, errAt(line, "flow: src and dst are both host %d", dst)
	}
	f.Dst = int(dst)

	mb, line, ok, err := d.floatVal("mb")
	if err != nil {
		return f, err
	}
	if !ok {
		return f, errAt(d.n.Line, "flow: missing required key \"mb\"")
	}
	if mb <= 0 {
		return f, errAt(line, "key \"mb\": flow size must be > 0 MB, got %v", mb)
	}
	f.MB = mb

	start, line, ok, err := d.floatVal("start-ms")
	if err != nil {
		return f, err
	}
	if ok {
		if start < 0 {
			return f, errAt(line, "key \"start-ms\": start must be >= 0 ms, got %v", start)
		}
		f.StartMS = start
	}
	return f, d.finish("a flow")
}

func decodeParams(d *dec, sp *Spec) error {
	p := &sp.Params
	var err error
	var line int
	var ok bool
	if p.RTTFactor, line, ok, err = d.floatVal("rtt-factor"); err != nil {
		return err
	}
	if ok && p.RTTFactor <= 0 {
		return errAt(line, "key \"rtt-factor\": must be > 0, got %v", p.RTTFactor)
	}
	mds, line, ok, err := d.intVal("max-detect-per-step")
	if err != nil {
		return err
	}
	if ok {
		if mds <= 0 {
			return errAt(line, "key \"max-detect-per-step\": must be > 0, got %d", mds)
		}
		p.MaxDetectPerStep = int(mds)
	}
	fixed, line, ok, err := d.durVal("fixed-rtt-threshold")
	if err != nil {
		return err
	}
	if ok {
		if fixed <= 0 {
			return errAt(line, "key \"fixed-rtt-threshold\": must be > 0, got %v", fixed)
		}
		p.FixedRTTThreshold = simtime.Duration(fixed)
	}
	if p.Unrestricted, _, _, err = d.boolVal("unrestricted"); err != nil {
		return err
	}
	return d.finish("section \"params\"")
}

func decodeChaos(d *dec, sp *Spec) error {
	loss, line, ok, err := d.floatVal("loss")
	if err != nil {
		return err
	}
	if ok {
		if loss < 0 || loss > 1 {
			return errAt(line, "key \"loss\": rate must be in [0, 1], got %v", loss)
		}
		sp.Chaos = chaos.UniformLoss(loss)
	}

	seed, _, ok, err := d.intVal("seed")
	if err != nil {
		return err
	}
	if ok {
		sp.Chaos.Seed = seed
	}

	rate := func(key string, dst *float64) error {
		v, line, ok, err := d.floatVal(key)
		if err != nil {
			return err
		}
		if ok {
			if v < 0 || v > 1 {
				return errAt(line, "key %q: rate must be in [0, 1], got %v", key, v)
			}
			*dst = v
		}
		return nil
	}
	dur := func(key string, dst *simtime.Duration) error {
		v, line, ok, err := d.durVal(key)
		if err != nil {
			return err
		}
		if ok {
			if v < 0 {
				return errAt(line, "key %q: duration must be >= 0, got %v", key, v)
			}
			*dst = simtime.Duration(v)
		}
		return nil
	}
	c := &sp.Chaos
	for _, step := range []error{
		rate("notify-drop-rate", &c.NotifyDropRate),
		rate("notify-dup-rate", &c.NotifyDupRate),
		rate("notify-delay-rate", &c.NotifyDelayRate),
		dur("notify-delay", &c.NotifyDelay),
		rate("poll-loss-rate", &c.PollLossRate),
		rate("port-loss-rate", &c.PortLossRate),
		rate("monitor-kill-rate", &c.MonitorKillRate),
		dur("monitor-kill-window", &c.MonitorKillWindow),
		dur("monitor-down-for", &c.MonitorDownFor),
	} {
		if step != nil {
			return step
		}
	}
	return d.finish("section \"chaos\"")
}

func decodeAnalyzerd(d *dec, sp *Spec) error {
	a := &sp.Analyzerd
	ka, line, ok, err := d.intVal("kill-after")
	if err != nil {
		return err
	}
	if ok {
		if ka <= 0 {
			return errAt(line, "key \"kill-after\": must be > 0 acked messages, got %d", ka)
		}
		a.KillAfter = int(ka)
	}
	se, line, ok, err := d.intVal("snapshot-every")
	if err != nil {
		return err
	}
	if ok {
		if se <= 0 {
			return errAt(line, "key \"snapshot-every\": must be > 0, got %d", se)
		}
		a.SnapshotEvery = int(se)
	}
	fs, line, ok, err := d.str("fsync")
	if err != nil {
		return err
	}
	if ok {
		switch fs {
		case "always", "interval", "off":
			a.Fsync = fs
		default:
			return errAt(line, "key \"fsync\": unknown policy %q (always, interval, off)", fs)
		}
	}
	return d.finish("section \"analyzerd\"")
}

func decodeFleet(d *dec, sp *Spec) error {
	f := &sp.Fleet
	shards, line, ok, err := d.intVal("shards")
	if err != nil {
		return err
	}
	if !ok {
		return errAt(d.n.Line, "fleet: missing required key \"shards\"")
	}
	if shards < 2 || shards > 16 {
		return errAt(line, "key \"shards\": fleet width must be in [2, 16], got %d", shards)
	}
	f.Shards = int(shards)

	reps, line, ok, err := d.intVal("replicas")
	if err != nil {
		return err
	}
	if ok {
		if reps <= 0 {
			return errAt(line, "key \"replicas\": must be > 0 vnodes per shard, got %d", reps)
		}
		f.Replicas = int(reps)
	}

	ks, ksLine, hasKS, err := d.intVal("kill-shard")
	if err != nil {
		return err
	}
	if hasKS {
		if ks < 0 || ks >= shards {
			return errAt(ksLine, "key \"kill-shard\": shard index must be in [0, %d), got %d", shards, ks)
		}
		f.KillShard = int(ks)
	}
	ka, line, hasKA, err := d.intVal("kill-shard-after")
	if err != nil {
		return err
	}
	if hasKA {
		if !hasKS {
			return errAt(line, "key \"kill-shard-after\" requires \"kill-shard\"")
		}
		if ka <= 0 {
			return errAt(line, "key \"kill-shard-after\": must be > 0 acked messages, got %d", ka)
		}
		f.KillAfter = int(ka)
	}
	if hasKS && !hasKA {
		return errAt(ksLine, "key \"kill-shard\" requires \"kill-shard-after\"")
	}

	hs, line, hasHS, err := d.intVal("hold-down-shard")
	if err != nil {
		return err
	}
	if hasHS {
		if hasKS {
			return errAt(line, "keys \"kill-shard\" and \"hold-down-shard\" are mutually exclusive")
		}
		if hs < 0 || hs >= shards {
			return errAt(line, "key \"hold-down-shard\": shard index must be in [0, %d), got %d", shards, hs)
		}
		f.HoldShard = int(hs)
	}

	se, line, ok, err := d.intVal("snapshot-every")
	if err != nil {
		return err
	}
	if ok {
		if se <= 0 {
			return errAt(line, "key \"snapshot-every\": must be > 0, got %d", se)
		}
		f.SnapshotEvery = int(se)
	}
	fs, line, ok, err := d.str("fsync")
	if err != nil {
		return err
	}
	if ok {
		switch fs {
		case "always", "interval", "off":
			f.Fsync = fs
		default:
			return errAt(line, "key \"fsync\": unknown policy %q (always, interval, off)", fs)
		}
	}
	return d.finish("section \"fleet\"")
}

func decodeExpect(d *dec, sp *Spec) error {
	e := &sp.Expect
	e.MinFindings, e.MaxFindings = Unset, Unset
	e.MinCulprits, e.MaxCulprits = Unset, Unset
	e.MinVictims = Unset
	e.MinConfidence, e.MaxConfidence = Unset, Unset
	e.Precision, e.Recall = Unset, Unset
	e.MinPrecision, e.MinRecall = Unset, Unset

	outcome, line, ok, err := d.str("outcome")
	if err != nil {
		return err
	}
	if ok {
		switch outcome {
		case "TP", "FP", "FN":
			e.Outcome = outcome
		default:
			return errAt(line, "key \"outcome\": unknown outcome %q (TP, FP, FN)", outcome)
		}
	}

	comp, _, ok, err := d.boolVal("completed")
	if err != nil {
		return err
	}
	if ok {
		e.Completed = &comp
	}

	types, err := d.sequence("anomaly-types")
	if err != nil {
		return err
	}
	if types != nil {
		for _, item := range types.Items {
			sc, err := scalarOf(item, "anomaly-types")
			if err != nil {
				return err
			}
			if !KnownAnomalyType(sc.Value) {
				return errAt(sc.Line, "key \"anomaly-types\": unknown anomaly type %q (%s)", sc.Value, anomalyTypeNames())
			}
			e.AnomalyTypes = append(e.AnomalyTypes, sc.Value)
		}
	}

	count := func(key string, dst *int) error {
		v, line, ok, err := d.intVal(key)
		if err != nil {
			return err
		}
		if ok {
			if v < 0 {
				return errAt(line, "key %q: count must be >= 0, got %d", key, v)
			}
			*dst = int(v)
		}
		return nil
	}
	frac := func(key string, dst *float64) error {
		v, line, ok, err := d.floatVal(key)
		if err != nil {
			return err
		}
		if ok {
			if v < 0 || v > 1 {
				return errAt(line, "key %q: must be in [0, 1], got %v", key, v)
			}
			*dst = v
		}
		return nil
	}
	boolKey := func(key string, dst *bool) error {
		v, _, ok, err := d.boolVal(key)
		if err != nil {
			return err
		}
		if ok {
			*dst = v
		}
		return nil
	}
	for _, step := range []error{
		count("min-findings", &e.MinFindings),
		count("max-findings", &e.MaxFindings),
		boolKey("culprits-include-injected", &e.CulpritsIncludeInjected),
		count("min-culprits", &e.MinCulprits),
		count("max-culprits", &e.MaxCulprits),
		count("min-victims", &e.MinVictims),
		boolKey("victims-are-collective", &e.VictimsAreCollective),
		frac("min-confidence", &e.MinConfidence),
		frac("max-confidence", &e.MaxConfidence),
		boolKey("root-localized", &e.RootLocalized),
		frac("precision", &e.Precision),
		frac("recall", &e.Recall),
		frac("min-precision", &e.MinPrecision),
		frac("min-recall", &e.MinRecall),
	} {
		if step != nil {
			return step
		}
	}
	return d.finish("section \"expect\"")
}

// validate applies cross-field rules after decoding.
func validate(sp *Spec, expectLine int) error {
	s := sp.Scenario
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

// ParseAnomaly maps an anomaly name to its kind.
func ParseAnomaly(s string) (scenario.AnomalyKind, bool) {
	for _, k := range anomalyKinds {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

var anomalyKinds = []scenario.AnomalyKind{
	scenario.Contention, scenario.Incast, scenario.PFCStorm,
	scenario.PFCBackpressure, scenario.Loop, scenario.LoadImbalance,
	scenario.Clean,
}

func anomalyNames() string {
	out := ""
	for i, k := range anomalyKinds {
		if i > 0 {
			out += ", "
		}
		out += k.String()
	}
	return out
}

// ParseSystem maps a system name to its kind.
func ParseSystem(s string) (scenario.SystemKind, bool) {
	for _, k := range []scenario.SystemKind{
		scenario.Vedrfolnir, scenario.HawkeyeMaxR, scenario.HawkeyeMinR, scenario.FullPolling,
	} {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// ParseOp maps a collective op name.
func ParseOp(s string) (collective.Op, bool) {
	for _, k := range []collective.Op{collective.AllGather, collective.ReduceScatter, collective.AllReduce} {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// ParseAlg maps an algorithm name.
func ParseAlg(s string) (collective.Algorithm, bool) {
	for _, k := range []collective.Algorithm{collective.Ring, collective.HalvingDoubling} {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// anomalyTypeNames lists the diagnose.AnomalyType names assertable in
// expect.anomaly-types.
var knownAnomalyTypes = []string{
	"flow-contention", "incast", "pfc-backpressure", "pfc-storm",
	"forwarding-loop", "pfc-deadlock",
}

// KnownAnomalyType reports whether s names a diagnose.AnomalyType.
func KnownAnomalyType(s string) bool {
	for _, t := range knownAnomalyTypes {
		if t == s {
			return true
		}
	}
	return false
}

func anomalyTypeNames() string {
	out := ""
	for i, t := range knownAnomalyTypes {
		if i > 0 {
			out += ", "
		}
		out += t
	}
	return out
}
