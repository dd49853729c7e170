package scenario

import (
	"slices"
	"testing"

	"vedrfolnir/internal/collective"
	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/topo"
)

// routeLog records, per flow, the egress ports its data packets joined, in
// the order the flow first reached each one.
type routeLog map[fabric.FlowKey][]topo.PortID

func (r routeLog) QueueEvent(node topo.NodeID, port, _ int, enqueue bool, pkt *fabric.Packet, _ simtime.Time) {
	if !enqueue || pkt.Kind.Control() {
		return
	}
	p := topo.PortID{Node: node, Port: port}
	if !slices.Contains(r[pkt.Flow], p) {
		r[pkt.Flow] = append(r[pkt.Flow], p)
	}
}

// TestPathMatchesFabricRoute: the monitor's RTT and FCT estimates walk
// topo.Path, so the path it predicts for every collective flow must be
// the hops the fabric forwarded that flow's data packets on, under Ring
// and Halving-Doubling AllGather.
func TestPathMatchesFabricRoute(t *testing.T) {
	cfg, opts := benchmarkConfig()
	cfg.Op = collective.AllGather
	for _, alg := range []collective.Algorithm{collective.Ring, collective.HalvingDoubling} {
		cfg.Alg = alg
		cs, err := GenerateCase(Clean, 1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ft, net := newNetwork(cs, cfg)
		routes := routeLog{}
		net.Observer = routes
		res, err := runOn(ft, net, cs, Vedrfolnir, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed || len(res.CFs) == 0 {
			t.Fatalf("%v: completed %v with %d collective flows", alg, res.Completed, len(res.CFs))
		}
		for f := range res.CFs {
			want := ft.Path(f.Src, f.Dst, f.PathHash())
			if got := routes[f]; len(want) == 0 || !slices.Equal(got, want) {
				t.Errorf("%v flow %v: fabric forwarded on %v, Path predicts %v", alg, f, got, want)
			}
		}
	}
}
