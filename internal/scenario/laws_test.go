package scenario

import (
	"fmt"
	"testing"

	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/topo"
)

// egressTally counts the data bytes of one flow leaving one egress port.
type egressTally struct {
	port  topo.PortID
	flow  fabric.FlowKey
	bytes int64
}

func (e *egressTally) QueueEvent(node topo.NodeID, port, _ int, enqueue bool, pkt *fabric.Packet, _ simtime.Time) {
	if !enqueue && pkt.Kind == fabric.KindData && pkt.Flow == e.flow &&
		(topo.PortID{Node: node, Port: port}) == e.port {
		e.bytes += int64(pkt.Size)
	}
}

// TestBystanderFlowYieldsNoFinding is the bystander law: a flow between two
// hosts outside the collective, on a path that shares no egress port with
// any collective flow, must not raise a finding under any system. The law
// holds only on its premises, so each run also checks that the bystander's
// path is port-disjoint from every collective flow's (a routing change
// that breaks this must fail here, not pass vacuously) and that all its
// bytes reached the destination's edge port.
func TestBystanderFlowYieldsNoFinding(t *testing.T) {
	cfg := DefaultConfig()
	opts := DefaultRunOptions(cfg)
	hosts := topo.PaperFatTree().Hosts()
	pairs := []struct {
		name     string
		src, dst topo.NodeID
	}{
		{"same-edge", hosts[8], hosts[9]},
		{"same-pod", hosts[8], hosts[10]},
		{"other-pod", hosts[12], hosts[14]},
	}
	systems := []SystemKind{Vedrfolnir, HawkeyeMaxR, HawkeyeMinR, FullPolling}
	for seed := int64(1); seed <= 5; seed++ {
		for _, sys := range systems {
			for i, pr := range pairs {
				where := fmt.Sprintf("seed %d %v %s", seed, sys, pr.name)
				flow := InjectedFlow{Key: bgKey(pr.src, pr.dst, i), Bytes: cfg.scaledMB(200)}
				cs := Case{Kind: Clean, Seed: seed, Flows: []InjectedFlow{flow}}
				ft, net := newNetwork(cs, cfg)
				path := ft.Path(pr.src, pr.dst, flow.Key.PathHash())
				tally := &egressTally{port: path[len(path)-1], flow: flow.Key}
				net.Observer = tally
				res, err := runOn(ft, net, cs, sys, cfg, opts)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if !res.Completed {
					t.Fatalf("%s: collective did not complete", where)
				}

				onCF := map[topo.PortID]bool{}
				for cf := range res.CFs {
					for _, p := range ft.Path(cf.Src, cf.Dst, cf.PathHash()) {
						onCF[p] = true
					}
				}
				for _, p := range path {
					if onCF[p] {
						t.Fatalf("%s: bystander egress %v is on a collective flow's path", where, p)
					}
				}
				if tally.bytes != flow.Bytes {
					t.Errorf("%s: bystander delivered %d of %d bytes", where, tally.bytes, flow.Bytes)
				}
				for _, f := range res.Diag.Findings {
					t.Errorf("%s: bystander raised a %v finding at %v", where, f.Type, f.RootPort)
				}
			}
		}
	}
}
