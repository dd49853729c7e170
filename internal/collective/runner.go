package collective

import (
	"fmt"
	"sort"

	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/rdma"
	"vedrfolnir/internal/sim"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/topo"
)

// StepRecord is the timing of one executed step, the raw material of the
// waiting graph (§III-C1: "Upon completion of each flow step, the host
// reports its 5-tuple, data volume transferred, start time, end time, and
// the source host of the flow it is waiting for").
type StepRecord struct {
	Host     topo.NodeID
	Step     int
	Flow     fabric.FlowKey
	Bytes    int64
	Start    simtime.Time
	End      simtime.Time
	WaitSrc  topo.NodeID
	WaitStep int
	// BoundByWait reports whether the step's start was gated by the data
	// dependency (true) or by the previous send step (false) — i.e. which
	// incoming waiting-graph edge was binding.
	BoundByWait bool
}

type flowRef struct {
	host topo.NodeID
	step int
}

type hostState struct {
	sch *Schedule
	// next step to start; steps [0,next) have started.
	next int
	// sendDone[s] true once step s's message is fully acked.
	sendDone []bool
	// recvDone[s] true once the data dependency of step s is satisfied.
	recvDone []bool
	// recvAt / prevEndAt record when each gate opened, to decide which
	// edge was binding.
	recvAt    []simtime.Time
	prevEndAt []simtime.Time
	started   []simtime.Time
	ended     []simtime.Time
	chunks    map[string]bool
}

// Runner executes a set of decomposed schedules over RDMA hosts.
type Runner struct {
	K     *sim.Kernel
	hosts map[topo.NodeID]*rdma.Host

	state     map[topo.NodeID]*hostState
	flowIndex map[fabric.FlowKey]flowRef

	records  []StepRecord
	pending  int
	doneAt   simtime.Time
	finished bool
	err      error

	// OnStepStart fires when a host begins a step (its flow enters the
	// network).
	OnStepStart func(host topo.NodeID, step int, flow fabric.FlowKey, at simtime.Time)
	// OnStepEnd fires at sender-side completion of a step.
	OnStepEnd func(rec StepRecord)
	// OnComplete fires once every step of every schedule has completed.
	OnComplete func(at simtime.Time)
}

// NewRunner prepares (but does not start) a collective execution. It fails
// if a schedule names a host the cluster does not have.
func NewRunner(k *sim.Kernel, hosts map[topo.NodeID]*rdma.Host, schedules []*Schedule) (*Runner, error) {
	r := &Runner{
		K:         k,
		hosts:     hosts,
		state:     make(map[topo.NodeID]*hostState),
		flowIndex: make(map[fabric.FlowKey]flowRef),
	}
	for _, sch := range schedules {
		if _, ok := hosts[sch.Host]; !ok {
			return nil, fmt.Errorf("collective: no rdma host for node %d", sch.Host)
		}
		ns := len(sch.Steps)
		st := &hostState{
			sch:       sch,
			sendDone:  make([]bool, ns),
			recvDone:  make([]bool, ns),
			recvAt:    make([]simtime.Time, ns),
			prevEndAt: make([]simtime.Time, ns),
			started:   make([]simtime.Time, ns),
			ended:     make([]simtime.Time, ns),
			chunks:    map[string]bool{fmt.Sprintf("C%d", sch.Rank): true},
		}
		r.state[sch.Host] = st
		r.pending += ns
		for s := range sch.Steps {
			r.flowIndex[sch.FlowKey(s)] = flowRef{host: sch.Host, step: s}
		}
	}
	return r, nil
}

// Bind wires this runner directly into its hosts' completion hooks. Use it
// when the runner is the only flow producer; scenarios with background
// traffic should instead route HandleSendComplete/HandleRecvComplete from
// their own dispatchers.
func (r *Runner) Bind() {
	for id, h := range r.hosts {
		_ = id
		h.OnSendComplete = func(f fabric.FlowKey, b int64) { r.HandleSendComplete(f) }
		h.OnRecvComplete = func(f fabric.FlowKey, b int64) { r.HandleRecvComplete(f) }
	}
}

// Start launches step 0 of every schedule. Hosts are started in ascending
// ID order: same-timestamp simulation events run FIFO, so launch order is
// observable in packet interleavings — iterating the state map here would
// make otherwise-identical runs diverge.
func (r *Runner) Start() {
	ids := make([]topo.NodeID, 0, len(r.state))
	for host := range r.state {
		ids = append(ids, host)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, host := range ids {
		r.tryStart(host)
	}
}

// Err returns the first step-launch failure, if any. A non-nil Err means
// the collective cannot complete.
func (r *Runner) Err() error { return r.err }

// StepOf resolves a flow to its (host, step), with ok=false for foreign
// flows.
func (r *Runner) StepOf(flow fabric.FlowKey) (host topo.NodeID, step int, ok bool) {
	ref, ok := r.flowIndex[flow]
	return ref.host, ref.step, ok
}

// Schedule returns the schedule for a participating host (nil otherwise).
func (r *Runner) Schedule(host topo.NodeID) *Schedule {
	if st := r.state[host]; st != nil {
		return st.sch
	}
	return nil
}

// SendIndex returns how many send steps host has completed — the monitor's
// "Send Steps" counter of Table I.
func (r *Runner) SendIndex(host topo.NodeID) int {
	st := r.state[host]
	n := 0
	for _, d := range st.sendDone {
		if !d {
			break
		}
		n++
	}
	return n
}

// RecvIndex returns how many receive-queue entries have been satisfied —
// the monitor's "Recv Steps" counter of Table I. Steps without a data
// dependency count as satisfied from the start.
func (r *Runner) RecvIndex(host topo.NodeID) int {
	st := r.state[host]
	n := 0
	for s := range st.recvDone {
		if st.sch.Steps[s].WaitSrc == topo.None || st.recvDone[s] {
			n++
			continue
		}
		break
	}
	return n
}

// HandleSendComplete processes a sender-side message completion. It returns
// false if the flow is not part of this collective.
func (r *Runner) HandleSendComplete(flow fabric.FlowKey) bool {
	ref, ok := r.flowIndex[flow]
	if !ok {
		return false
	}
	now := r.K.Now()
	st := r.state[ref.host]
	st.sendDone[ref.step] = true
	st.ended[ref.step] = now
	if ref.step+1 < len(st.sch.Steps) {
		st.prevEndAt[ref.step+1] = now
	}

	step := st.sch.Steps[ref.step]
	rec := StepRecord{
		Host:     ref.host,
		Step:     ref.step,
		Flow:     flow,
		Bytes:    step.Bytes,
		Start:    st.started[ref.step],
		End:      now,
		WaitSrc:  step.WaitSrc,
		WaitStep: step.WaitStep,
	}
	if step.WaitSrc != topo.None && st.recvAt[ref.step] >= st.prevEndAt[ref.step] {
		rec.BoundByWait = true
	}
	r.records = append(r.records, rec)
	if r.OnStepEnd != nil {
		r.OnStepEnd(rec)
	}

	r.pending--
	if r.pending == 0 && !r.finished {
		r.finished = true
		r.doneAt = now
		if r.OnComplete != nil {
			r.OnComplete(now)
		}
	}
	r.tryStart(ref.host)
	return true
}

// HandleRecvComplete processes a receiver-side message completion: it
// satisfies the data dependency of the receiver's next step. It returns
// false if the flow is not part of this collective.
func (r *Runner) HandleRecvComplete(flow fabric.FlowKey) bool {
	ref, ok := r.flowIndex[flow]
	if !ok {
		return false
	}
	srcState := r.state[ref.host]
	step := srcState.sch.Steps[ref.step]
	dst := step.Dst
	dstState := r.state[dst]
	if dstState == nil {
		return true // delivered to a non-participant (should not happen)
	}
	// The arriving chunk joins the receiver's ledger (symbolic data model;
	// lets tests assert collective semantics).
	dstState.chunks[step.Chunk] = true

	// This reception satisfies whichever of the receiver's steps waits on
	// exactly this (host, step) flow. Lockstep algorithms wait on step
	// index-1 of a neighbour; tree algorithms can wait on any index.
	for next := range dstState.sch.Steps {
		w := dstState.sch.Steps[next]
		if w.WaitSrc == ref.host && w.WaitStep == ref.step && !dstState.recvDone[next] {
			dstState.recvDone[next] = true
			dstState.recvAt[next] = r.K.Now()
			r.tryStart(dst)
			break
		}
	}
	return true
}

// tryStart launches the host's next step if both of its gates are open.
func (r *Runner) tryStart(host topo.NodeID) {
	st := r.state[host]
	for st.next < len(st.sch.Steps) {
		s := st.next
		if s > 0 && !st.sendDone[s-1] {
			return
		}
		step := st.sch.Steps[s]
		if step.WaitSrc != topo.None && !st.recvDone[s] {
			return
		}
		st.next++
		now := r.K.Now()
		st.started[s] = now
		flow := st.sch.FlowKey(s)
		if r.OnStepStart != nil {
			r.OnStepStart(host, s, flow, now)
		}
		if err := r.hosts[host].Send(flow, step.Bytes); err != nil {
			if r.err == nil {
				r.err = fmt.Errorf("collective: starting F%dS%d: %w", host, s, err)
			}
			return
		}
	}
}

// Records returns the completed step records in completion order.
func (r *Runner) Records() []StepRecord { return r.records }

// Done reports whether every step completed, and when.
func (r *Runner) Done() (bool, simtime.Time) { return r.finished, r.doneAt }
