// Package sim provides the discrete-event simulation kernel every other
// substrate runs on: a virtual clock, an event scheduler and a deterministic
// random source. The kernel is single-goroutine by design — determinism is a
// hard requirement for reproducing the paper's figures bit-identically.
package sim

import (
	"fmt"
	"math/rand"

	"vedrfolnir/internal/eventq"
	"vedrfolnir/internal/obs"
	"vedrfolnir/internal/simtime"
)

// Kernel is a discrete-event simulator. Create one with New.
type Kernel struct {
	now     simtime.Time
	q       eventq.Queue
	rng     *rand.Rand
	stopped bool
	events  uint64
	limit   uint64

	// Wall-time stage timers (perf observability). Nil by default: a nil
	// *obs.Timer no-ops, so the uninstrumented hot path pays one nil check
	// and the simulated outcome is identical either way.
	tPush *obs.Timer
	tPop  *obs.Timer
}

// New returns a kernel whose random source is seeded with seed, so two runs
// with equal seeds and equal event schedules are identical.
func New(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulation time.
func (k *Kernel) Now() simtime.Time { return k.now }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Events returns the number of events executed so far.
func (k *Kernel) Events() uint64 { return k.events }

// SetEventLimit aborts Run with a panic after n events; 0 means unlimited.
// It is a guard against accidental event storms (e.g. a forwarding loop
// without TTL) in tests.
func (k *Kernel) SetEventLimit(n uint64) { k.limit = n }

// SetStages installs wall-time stage timers around the scheduler's
// push/pop hot path. A nil bundle (the default) disables them; timing
// never influences the simulation, only the profiling histograms.
func (k *Kernel) SetStages(st *obs.Stages) {
	if st == nil {
		k.tPush, k.tPop = nil, nil
		return
	}
	k.tPush, k.tPop = st.EventPush, st.EventPop
}

// QueueStats returns the event queue's lifetime traffic counters.
func (k *Kernel) QueueStats() eventq.Stats { return k.q.Stats() }

// At schedules fn to run at absolute time at. Scheduling in the past is a
// programming error and panics, since it would silently reorder causality.
func (k *Kernel) At(at simtime.Time, fn func()) {
	if at < k.now {
		//lint:ignore nopanic causality invariant: a past-dated event would silently reorder the run; documented API contract
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, k.now))
	}
	t0 := k.tPush.Begin()
	k.q.Push(at, fn)
	k.tPush.End(t0)
}

// After schedules fn to run d after the current time.
func (k *Kernel) After(d simtime.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	k.At(k.now.Add(d), fn)
}

// Stop makes Run return after the current event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events until the queue drains, Stop is called, or until is
// reached (use simtime.Never for no deadline). It returns the time of the
// last executed event.
func (k *Kernel) Run(until simtime.Time) simtime.Time {
	k.stopped = false
	for !k.stopped {
		t0 := k.tPop.Begin()
		e, ok := k.q.PopUntil(until)
		k.tPop.End(t0)
		if !ok {
			break
		}
		k.now = e.At
		k.events++
		if k.limit > 0 && k.events > k.limit {
			//lint:ignore nopanic event-storm guard documented on SetEventLimit; aborting the run is its contract
			panic(fmt.Sprintf("sim: event limit %d exceeded at %v", k.limit, k.now))
		}
		if e.Fn != nil {
			e.Fn()
		}
	}
	if until != simtime.Never && k.now < until && k.q.Len() == 0 {
		// Advance the clock to the deadline so timed observations after
		// Run see a consistent "now".
		k.now = until
	}
	return k.now
}

// Pending returns the number of not-yet-executed events.
func (k *Kernel) Pending() int { return k.q.Len() }

// MaxPending returns the high-water mark of the event queue depth — how
// deep the scheduler backlog ever got during the run.
func (k *Kernel) MaxPending() int { return k.q.Stats().MaxLen }
