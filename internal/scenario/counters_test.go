package scenario

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/replay"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/topo"
	"vedrfolnir/internal/wire"
)

// benchmarkConfig is the configuration benchmark/config.go pins for the
// sweep workloads: the §IV-A kinds at 1/360 scale with 16 KiB cells and
// thresholds to match, at most five detections per step.
func benchmarkConfig() (Config, RunOptions) {
	cfg := DefaultConfig()
	cfg.Scale = 1.0 / 360
	cfg.StepBytes = cfg.ScaledBytes(360e6)
	cfg.CellSize = 16 << 10
	cfg.Fabric.PFCPauseThreshold = 64 << 10
	cfg.Fabric.PFCResumeThreshold = 32 << 10
	cfg.Fabric.ECNThreshold = 32 << 10
	opts := DefaultRunOptions(cfg)
	opts.Monitor.MaxDetectPerStep = 5
	return cfg, opts
}

var benchmarkKinds = []AnomalyKind{Contention, Incast, PFCStorm, PFCBackpressure}

// portTally is the oracle's own account of one egress port, kept from the
// observer feed with nothing but maps and additions.
type portTally struct {
	pkts, bytes map[fabric.FlowKey]int64 // every packet enqueued, control included
	meter       map[int]int64            // bytes enqueued, by ingress port
}

// oracle observes every queue of a network: the embedded recorder logs the
// data packets for the offline w(f_i, f_j) replay, the tallies count what
// the switch counts per flow and per ingress.
type oracle struct {
	*replay.Recorder
	ports map[topo.PortID]*portTally
}

func (o *oracle) QueueEvent(node topo.NodeID, port, ingress int, enqueue bool, pkt *fabric.Packet, at simtime.Time) {
	o.Recorder.QueueEvent(node, port, ingress, enqueue, pkt, at)
	if !enqueue {
		return
	}
	p := topo.PortID{Node: node, Port: port}
	pt := o.ports[p]
	if pt == nil {
		pt = &portTally{pkts: map[fabric.FlowKey]int64{}, bytes: map[fabric.FlowKey]int64{}, meter: map[int]int64{}}
		o.ports[p] = pt
	}
	pt.pkts[pkt.Flow]++
	pt.bytes[pkt.Flow] += int64(pkt.Size)
	if ingress >= 0 {
		pt.meter[ingress] += int64(pkt.Size)
	}
}

// byFlow spreads a slot-indexed counter over its flows, leaving out zeros.
func byFlow(flows []fabric.FlowKey, vals []int64) map[fabric.FlowKey]int64 {
	out := map[fabric.FlowKey]int64{}
	for slot, v := range vals {
		if v != 0 {
			out[flows[slot]] = v
		}
	}
	return out
}

// TestDenseCountersMatchReplayOracle checks the switches' slot-indexed
// counters against an account that shares no code with them, on every
// egress port of every switch, for the benchmark's four kinds × 8 seeds:
// per-flow packets and bytes and the per-ingress meter against the
// observer's tally, and the whole wait matrix against internal/replay's
// offline reconstruction from the queue log.
func TestDenseCountersMatchReplayOracle(t *testing.T) {
	cfg, opts := benchmarkConfig()
	for _, kind := range benchmarkKinds {
		waits := 0
		for seed := int64(1); seed <= 8; seed++ {
			cs, err := GenerateCase(kind, seed, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ft, net := newNetwork(cs, cfg)
			orc := &oracle{Recorder: replay.Attach(net, 0), ports: map[topo.PortID]*portTally{}}
			net.Observer = orc
			if _, err := runOn(ft, net, cs, Vedrfolnir, cfg, opts); err != nil {
				t.Fatal(err)
			}
			for _, sw := range net.Topo.Switches() {
				for pi := range net.Topo.Node(sw).Ports {
					p := topo.PortID{Node: sw, Port: pi}
					waits += checkPort(t, fmt.Sprintf("%v seed %d port %v", kind, seed, p), net.Egress(sw, pi).Counters(), orc.ports[p], orc.Log(p))
				}
			}
		}
		// A storm case has no background flows and a ring's own flows share
		// no egress, so only the other three kinds fill the matrix.
		if waits == 0 && kind != PFCStorm {
			t.Errorf("%v: no packet ever waited behind another flow's; the wait matrix went unchecked", kind)
		}
	}
}

// checkPort compares one port's counters with the oracle's account of it
// and returns how many non-zero wait entries it compared.
func checkPort(t *testing.T, where string, pc fabric.PortCounters, pt *portTally, log *replay.Log) int {
	t.Helper()
	if pt == nil {
		pt = &portTally{pkts: map[fabric.FlowKey]int64{}, bytes: map[fabric.FlowKey]int64{}}
	}
	seen := map[fabric.FlowKey]bool{}
	for _, f := range pc.Flows {
		if seen[f] {
			t.Errorf("%s: flow %v holds two slots", where, f)
		}
		seen[f] = true
	}
	if got := byFlow(pc.Flows, pc.FlowPkts); !reflect.DeepEqual(got, pt.pkts) {
		t.Errorf("%s: per-flow packets %v, oracle %v", where, got, pt.pkts)
	}
	if got := byFlow(pc.Flows, pc.FlowBytes); !reflect.DeepEqual(got, pt.bytes) {
		t.Errorf("%s: per-flow bytes %v, oracle %v", where, got, pt.bytes)
	}
	var enqueues int64
	for _, n := range pt.pkts {
		enqueues += n
	}
	if pc.Enqueues != enqueues {
		t.Errorf("%s: %d enqueues, oracle %d", where, pc.Enqueues, enqueues)
	}
	for ingress, b := range pc.MeterIn {
		if b != pt.meter[ingress] {
			t.Errorf("%s: meter from ingress %d is %d, oracle %d", where, ingress, b, pt.meter[ingress])
		}
	}
	for ingress := range pt.meter {
		if ingress >= len(pc.MeterIn) {
			t.Errorf("%s: oracle metered ingress %d, the port has %d meters", where, ingress, len(pc.MeterIn))
		}
	}

	online := map[fabric.FlowKey]map[fabric.FlowKey]int64{}
	entries := 0
	for slot, row := range pc.Wait {
		if r := byFlow(pc.Flows, row); len(r) > 0 {
			online[pc.Flows[slot]] = r
			entries += len(r)
		}
	}
	replayed := map[fabric.FlowKey]map[fabric.FlowKey]int64{}
	if log != nil {
		for fi, row := range replay.Replay(log, 0, simtime.Never).Wait {
			if len(row) > 0 {
				replayed[fi] = row
			}
		}
	}
	if !reflect.DeepEqual(online, replayed) {
		t.Errorf("%s: wait matrix %v, replayed %v", where, online, replayed)
	}
	return entries
}

// TestFlowInterningOrderStaysInternal runs each case three times — flows
// interned as traffic first shows them, and pre-interned in ascending and
// in descending order of their printed 5-tuples, which relabels every id and reshuffles every
// port's slots — and requires byte-identical serialised bundles: ids and
// slot order must not leak into any record, count or ordering.
func TestFlowInterningOrderStaysInternal(t *testing.T) {
	cfg, opts := benchmarkConfig()
	for _, kind := range benchmarkKinds {
		for seed := int64(1); seed <= 2; seed++ {
			cs, err := GenerateCase(kind, seed, cfg)
			if err != nil {
				t.Fatal(err)
			}
			bundle := func(order []fabric.FlowKey) ([]byte, Result) {
				ft, net := newNetwork(cs, cfg)
				for _, f := range order {
					net.Intern(f)
				}
				res, err := runOn(ft, net, cs, Vedrfolnir, cfg, opts)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := wire.NewBundle(res.Records, res.Reports, res.CFs).Write(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes(), res
			}
			want, res := bundle(nil)
			flows := make([]fabric.FlowKey, 0, len(res.CFs)+len(cs.Flows))
			for f := range res.CFs {
				flows = append(flows, f)
			}
			for _, inj := range cs.Flows {
				flows = append(flows, inj.Key)
			}
			slices.SortFunc(flows, func(a, b fabric.FlowKey) int { return strings.Compare(a.String(), b.String()) })
			for _, dir := range []string{"ascending", "descending"} {
				if got, _ := bundle(flows); !bytes.Equal(got, want) {
					t.Errorf("%v seed %d: bundle differs with flows pre-interned in %s order (%d vs %d bytes)",
						kind, seed, dir, len(got), len(want))
				}
				slices.Reverse(flows)
			}
		}
	}
}
