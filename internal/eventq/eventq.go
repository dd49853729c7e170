// Package eventq implements the priority queue that orders discrete
// simulation events. Events with equal timestamps dequeue in the order they
// were scheduled (FIFO tie-break), which keeps simulations deterministic.
package eventq

import "vedrfolnir/internal/simtime"

// Event is a callback scheduled at an absolute simulation time.
type Event struct {
	At  simtime.Time
	Fn  func()
	seq uint64
}

// less orders events by (At, insertion order).
func (e *Event) less(o *Event) bool {
	if e.At != o.At {
		return e.At < o.At
	}
	return e.seq < o.seq
}

// Stats counts a queue's lifetime traffic: total pushes and pops, plus the
// depth high-water mark. Plain values — the queue does not depend on any
// metrics machinery; callers export them if they care.
type Stats struct {
	Pushes uint64
	Pops   uint64
	MaxLen int
}

// arity is the heap's branching factor: 4 halves a binary heap's depth and
// keeps a node's children within two cache lines for Pop's sift-down.
const arity = 4

// Queue is a 4-ary min-heap of events keyed by (At, insertion order). Events
// are stored by value, so Push and Pop allocate nothing once the backing
// array has grown to the run's depth. The zero Queue is ready to use.
type Queue struct {
	h     []Event
	stats Stats
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.h) }

// Stats returns the queue's lifetime traffic counters.
func (q *Queue) Stats() Stats { return q.stats }

// Push schedules fn at time at.
func (q *Queue) Push(at simtime.Time, fn func()) {
	q.stats.Pushes++ // doubles as the insertion sequence number
	e := Event{At: at, Fn: fn, seq: q.stats.Pushes}
	h := append(q.h, e)
	q.h = h
	// Sift up: move the hole toward the root while its parent is later.
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / arity
		if !e.less(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	if n := len(h); n > q.stats.MaxLen {
		q.stats.MaxLen = n
	}
}

// Pop removes and returns the earliest event, or the zero Event when the
// queue is empty (check Len first where that can happen).
func (q *Queue) Pop() Event {
	h := q.h
	n := len(h) - 1
	if n < 0 {
		return Event{}
	}
	e, last := h[0], h[n]
	h[n] = Event{} // drop the callback reference
	h = h[:n]
	q.h = h
	q.stats.Pops++
	// Sift down: move the hole from the root toward the leaves, pulling up
	// the earliest child, until last fits.
	i := 0
	for {
		c := arity*i + 1
		if c >= n {
			break
		}
		end := c + arity
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if h[j].less(&h[m]) {
				m = j
			}
		}
		if !h[m].less(&last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	if n > 0 {
		h[i] = last
	}
	return e
}

// Peek returns the earliest event without removing it; ok is false when the
// queue is empty.
func (q *Queue) Peek() (e Event, ok bool) {
	if len(q.h) == 0 {
		return Event{}, false
	}
	return q.h[0], true
}
