// Package replay implements the queue replay algorithm the paper references
// for deriving pairwise wait weights ("w(cf, f_i) can be derived via a
// replay algorithm", §III-D3, citing Hawkeye): switches log compact
// per-port packet arrival/departure events into bounded ring buffers, and
// the analyzer replays a port's log to reconstruct queue occupancy over
// time and recompute w(f_i, f_j) — the number of f_j packets each f_i
// packet queued behind — for any flow pair and any time window, offline.
//
// This complements internal/telemetry's online accumulators: the online
// counters are cheap but fixed at collection time; a replayed log answers
// questions the analyzer did not know to ask while collecting (e.g. the
// direct w(cf, f_i) term of Eq. 2 for a culprit identified only later).
package replay

import (
	"fmt"
	"sort"

	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/topo"
)

// EventKind distinguishes arrivals and departures.
type EventKind uint8

// Event kinds.
const (
	Enqueue EventKind = iota
	Dequeue
)

// Event is one logged queue transition at a port.
type Event struct {
	At   simtime.Time
	Kind EventKind
	Flow fabric.FlowKey
	Size int32
}

// Log is a bounded ring of queue events for one port. The zero Log is
// unbounded; set Cap to bound memory as a switch would.
type Log struct {
	Cap    int
	events []Event
	// Dropped counts events evicted by the ring bound.
	Dropped int64
}

// Record appends an event, evicting the oldest when over capacity.
func (l *Log) Record(ev Event) {
	l.events = append(l.events, ev)
	if l.Cap > 0 && len(l.events) > l.Cap {
		over := len(l.events) - l.Cap
		l.events = append(l.events[:0], l.events[over:]...)
		l.Dropped += int64(over)
	}
}

// Len returns the number of retained events.
func (l *Log) Len() int { return len(l.events) }

// Events returns the retained events in time order (the log is naturally
// ordered; a defensive sort guards against merged logs).
func (l *Log) Events() []Event {
	out := make([]Event, len(l.events))
	copy(out, l.events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Result is the reconstruction of one replay.
type Result struct {
	// Wait[fi][fj] is the replayed w(f_i, f_j): packets of f_j in the
	// queue at each f_i enqueue, summed over f_i's packets in the window.
	Wait map[fabric.FlowKey]map[fabric.FlowKey]int64
	// MaxDepthBytes is the peak queue depth observed.
	MaxDepthBytes int64
	// MeanDepthBytes is the depth averaged over enqueue events.
	MeanDepthBytes int64
	// Incomplete is true when the log was truncated by its ring bound
	// (the replay starts mid-stream, so early dequeues may be unmatched).
	Incomplete bool
}

// Replay reconstructs queue state from the log over [from, to] and returns
// the pairwise wait matrix. Dequeue events without a matching tracked
// packet (log truncation) are ignored.
func Replay(l *Log, from, to simtime.Time) *Result {
	res := &Result{
		Wait:       make(map[fabric.FlowKey]map[fabric.FlowKey]int64),
		Incomplete: l.Dropped > 0,
	}
	inQueue := make(map[fabric.FlowKey]int64)
	var depth int64
	var depthSum int64
	var enqueues int64

	for _, ev := range l.Events() {
		if ev.At > to {
			break
		}
		switch ev.Kind {
		case Enqueue:
			if ev.At >= from {
				row := res.Wait[ev.Flow]
				if row == nil {
					row = make(map[fabric.FlowKey]int64)
					res.Wait[ev.Flow] = row
				}
				for fj, n := range inQueue {
					if fj != ev.Flow && n > 0 {
						row[fj] += n
					}
				}
				depthSum += depth
				enqueues++
			}
			inQueue[ev.Flow]++
			depth += int64(ev.Size)
			if depth > res.MaxDepthBytes {
				res.MaxDepthBytes = depth
			}
		case Dequeue:
			if inQueue[ev.Flow] > 0 {
				inQueue[ev.Flow]--
				depth -= int64(ev.Size)
			}
		}
	}
	if enqueues > 0 {
		res.MeanDepthBytes = depthSum / enqueues
	}
	return res
}

// W returns the replayed w(f_i, f_j) from a result (0 when absent).
func (r *Result) W(fi, fj fabric.FlowKey) int64 { return r.Wait[fi][fj] }

// Recorder taps a fabric network's queue transitions into per-port logs —
// the switch-side "periodic recording" of §III-C3 in its replayable form.
type Recorder struct {
	// PerPortCap bounds each port's ring (0 = unbounded).
	PerPortCap int
	logs       map[topo.PortID]*Log
}

// Attach creates a recorder and installs it as net's queue observer.
func Attach(net *fabric.Network, perPortCap int) *Recorder {
	r := &Recorder{PerPortCap: perPortCap, logs: make(map[topo.PortID]*Log)}
	net.Observer = r
	return r
}

// QueueEvent implements fabric.QueueObserver. Only data packets are logged:
// control packets are served with strict priority and take no part in
// w(f_i, f_j).
func (r *Recorder) QueueEvent(node topo.NodeID, port, _ int, enqueue bool, pkt *fabric.Packet, at simtime.Time) {
	if pkt.Kind.Control() {
		return
	}
	p := topo.PortID{Node: node, Port: port}
	l := r.logs[p]
	if l == nil {
		l = &Log{Cap: r.PerPortCap}
		r.logs[p] = l
	}
	kind := Dequeue
	if enqueue {
		kind = Enqueue
	}
	l.Record(Event{At: at, Kind: kind, Flow: pkt.Flow, Size: int32(pkt.Size)})
}

// Log returns the log for a port (nil if the port saw no traffic).
func (r *Recorder) Log(p topo.PortID) *Log { return r.logs[p] }

// Ports returns every port with a log, deterministically ordered.
func (r *Recorder) Ports() []topo.PortID {
	out := make([]topo.PortID, 0, len(r.logs))
	for p := range r.logs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Port < out[j].Port
	})
	return out
}

// String renders a short summary of a result for reports.
func (r *Result) String() string {
	pairs := 0
	for _, row := range r.Wait {
		pairs += len(row)
	}
	return fmt.Sprintf("replay: %d flow pairs, max depth %dB, mean depth %dB, incomplete=%v",
		pairs, r.MaxDepthBytes, r.MeanDepthBytes, r.Incomplete)
}
