package provenance

import (
	"math/rand"
	"reflect"
	"testing"

	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/telemetry"
	"vedrfolnir/internal/topo"
)

// mergeRef folds graphs into one the way the analyzer's aggregate graph
// used to be formed (build one graph per report group, then merge). It is
// the reference the partition-invariance tests compare Build against:
// packet/byte/wait/meter counts sum, queue depths take the max,
// pause/injection flags OR, PFC edges union.
func mergeRef(cfs map[fabric.FlowKey]bool, gs ...*Graph) *Graph {
	m := Build(nil, cfs)
	pfc := map[topo.PortID]map[topo.PortID]bool{}
	for _, g := range gs {
		for p, fs := range g.flowPkts {
			for f, v := range fs {
				add2(m.flowPkts, p, f, v)
			}
		}
		for p, fs := range g.flowBytes {
			for f, v := range fs {
				add2(m.flowBytes, p, f, v)
			}
		}
		for p, rows := range g.pairWait {
			for fi, row := range rows {
				dst := m.pairWait[p]
				if dst == nil {
					dst = map[fabric.FlowKey]map[fabric.FlowKey]int64{}
					m.pairWait[p] = dst
				}
				drow := dst[fi]
				if drow == nil {
					drow = map[fabric.FlowKey]int64{}
					dst[fi] = drow
				}
				for fj, w := range row {
					drow[fj] += w
				}
			}
		}
		for p, d := range g.qdepth {
			if d > m.qdepth[p] {
				m.qdepth[p] = d
			}
		}
		for p, mi := range g.meterIn {
			for up, b := range mi {
				add2(m.meterIn, p, up, b)
			}
		}
		for pi, out := range g.pfcOut {
			for _, pj := range out {
				if pfc[pi] == nil {
					pfc[pi] = map[topo.PortID]bool{}
				}
				pfc[pi][pj] = true
			}
		}
		for p := range g.paused {
			m.paused[p] = true
		}
		for p := range g.injected {
			m.injected[p] = true
		}
	}
	m.derive(pfc)
	return m
}

// TestMergeEquivalentToBuild pins the property the analyzer depends on
// when it builds its aggregate graph in one pass and its per-step graphs
// from report subsets: building per-partition graphs and merging them is
// content-equal (derived views included, not just behaviorally equal) to
// building one graph over the whole report set, for any partitioning and
// any order of the parts.
func TestMergeEquivalentToBuild(t *testing.T) {
	cfs := map[fabric.FlowKey]bool{cfKey: true}
	reports := []*telemetry.Report{
		contentionReport(), pfcReport(), contentionReport(),
	}
	whole := Build(reports, cfs)

	partitions := [][][]*telemetry.Report{
		{{reports[0]}, {reports[1]}, {reports[2]}},
		{{reports[0], reports[1]}, {reports[2]}},
		{{reports[2], reports[0]}, nil, {reports[1]}},
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		parts := make([][]*telemetry.Report, 1+rng.Intn(4))
		for _, j := range rng.Perm(len(reports)) {
			k := rng.Intn(len(parts))
			parts[k] = append(parts[k], reports[j])
		}
		partitions = append(partitions, parts)
	}
	for i, parts := range partitions {
		var gs []*Graph
		for _, part := range parts {
			gs = append(gs, Build(part, cfs))
		}
		merged := mergeRef(cfs, gs...)
		if !reflect.DeepEqual(merged, whole) {
			t.Errorf("partition %d: merge(Build(parts)) != Build(all)\n got %+v\nwant %+v", i, merged, whole)
		}
	}
}
