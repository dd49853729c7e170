package experiments

import (
	"fmt"

	"vedrfolnir/internal/collective"
	"vedrfolnir/internal/diagnose"
	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/monitor"
	"vedrfolnir/internal/rdma"
	"vedrfolnir/internal/scenario"
	"vedrfolnir/internal/sim"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/topo"
	"vedrfolnir/internal/waitgraph"
	"vedrfolnir/internal/workload"
)

// TrainingResult is one collective's outcome within a training stream.
type TrainingResult struct {
	Index    int
	Op       collective.Op
	Duration simtime.Duration
	Diag     *diagnose.Diagnosis
	Reports  int
}

// TrainingSim runs a stream of collectives from the LLM workload generator
// (97% AllReduce/AllGather, §IV-A) back-to-back on one simulated cluster —
// the steady-state regime the paper's intro motivates — optionally
// disturbing one collective with a background flow. Each collective gets a
// fresh monitor system and is diagnosed separately, so the test can assert
// that anomalies localize to the iteration they occurred in.
func TrainingSim(cfg scenario.Config, iterations, disturbAt int, disturbBytes int64) ([]TrainingResult, error) {
	ft := topo.PaperFatTree()
	k := sim.New(4242)
	k.SetEventLimit(2_000_000_000)
	fcfg := cfg.Fabric
	net := fabric.NewNetwork(k, ft.Topology, fcfg)

	rcfg := rdma.DefaultConfig()
	rcfg.CellSize = cfg.CellSize
	hosts := make(map[topo.NodeID]*rdma.Host)
	for _, id := range ft.Hosts() {
		h, err := rdma.NewHost(k, net, id, rcfg)
		if err != nil {
			return nil, err
		}
		hosts[id] = h
	}
	ranks := ft.Hosts()[:cfg.Ranks]
	extras := ft.Hosts()[cfg.Ranks:]

	gen := workload.NewGenerator(7, workload.PaperMix(), ranks, cfg.StepBytes, cfg.Alg)

	var results []TrainingResult
	for it := 0; it < iterations; it++ {
		spec := gen.Next()
		schedules, err := collective.Decompose(spec)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		run, err := collective.NewRunner(k, hosts, schedules)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		run.Bind()
		cfs := make(map[fabric.FlowKey]bool)
		for _, sch := range schedules {
			for s := range sch.Steps {
				cfs[sch.FlowKey(s)] = true
			}
		}
		mcfg := scenario.DefaultRunOptions(cfg).Monitor
		sys := monitor.NewSystem(k, net, run, hosts, mcfg)

		if it == disturbAt {
			bg := fabric.FlowKey{
				Src: extras[0], Dst: ranks[2],
				SrcPort: uint16(40000 + it), DstPort: uint16(40001 + it), Proto: 17,
			}
			if err := hosts[extras[0]].Send(bg, disturbBytes); err != nil {
				return nil, fmt.Errorf("experiments: background flow: %w", err)
			}
		}

		start := k.Now()
		var doneAt simtime.Time
		run.OnComplete = func(at simtime.Time) {
			doneAt = at
			k.Stop()
		}
		run.Start()
		k.Run(simtime.Never)
		if err := run.Err(); err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		if done, _ := run.Done(); !done {
			return nil, fmt.Errorf("experiments: training iteration %d stalled", it)
		}

		diag := diagnose.Analyze(diagnose.Input{
			Records: run.Records(),
			Reports: sys.Reports(),
			CFs:     cfs,
			StepOf: func(f fabric.FlowKey) (waitgraph.StepRef, bool) {
				host, step, ok := run.StepOf(f)
				return waitgraph.StepRef{Host: host, Step: step}, ok
			},
		})
		results = append(results, TrainingResult{
			Index:    it,
			Op:       spec.Op,
			Duration: doneAt.Sub(start),
			Diag:     diag,
			Reports:  len(sys.Reports()),
		})
	}
	return results, nil
}
