// Package eventq implements the priority queue that orders discrete
// simulation events. Events with equal timestamps dequeue in the order they
// were scheduled (FIFO tie-break), which keeps simulations deterministic.
package eventq

import (
	"math/bits"

	"vedrfolnir/internal/simtime"
)

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

// key returns the event's place in that order as one unsigned 128-bit
// number (hi, lo): At with its sign bit flipped, so the whole int64 range
// sorts as unsigned, then the insertion sequence.
func (e *Event) key() (hi, lo uint64) { return uint64(e.At) ^ 1<<63, e.seq }

// before returns 1 when key a is strictly smaller than key b and 0
// otherwise: the borrow out of the 128-bit subtraction a - b. Pop selects
// with it arithmetically, because which of four children is earliest is a
// coin toss no branch predictor learns.
func before(ahi, alo, bhi, blo uint64) uint64 {
	_, borrow := bits.Sub64(alo, blo, 0)
	_, borrow = bits.Sub64(ahi, bhi, borrow)
	return borrow
}

// pick returns x when take is 1 and y when it is 0.
func pick(take, x, y uint64) uint64 { return y ^ (x^y)&-take }

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
	lastHi, lastLo := last.key()
	i := 0
	for {
		c := arity*i + 1
		if c >= n {
			break
		}
		var m int
		var mHi, mLo uint64
		if c+arity <= n {
			// A full group: a two-round tournament on the keys, the
			// winner's index assembled from the borrows.
			g := h[c : c+arity : c+arity]
			hi0, lo0 := g[0].key()
			hi1, lo1 := g[1].key()
			hi2, lo2 := g[2].key()
			hi3, lo3 := g[3].key()
			b1 := before(hi1, lo1, hi0, lo0)
			b3 := before(hi3, lo3, hi2, lo2)
			aHi, aLo := pick(b1, hi1, hi0), pick(b1, lo1, lo0)
			bHi, bLo := pick(b3, hi3, hi2), pick(b3, lo3, lo2)
			bb := before(bHi, bLo, aHi, aLo)
			mHi, mLo = pick(bb, bHi, aHi), pick(bb, bLo, aLo)
			m = c + int(pick(bb, 2+b3, b1))
		} else {
			// The partial last group (1–3 children).
			m = c
			for j := c + 1; j < n; j++ {
				if h[j].less(&h[m]) {
					m = j
				}
			}
			mHi, mLo = h[m].key()
		}
		if before(mHi, mLo, lastHi, lastLo) == 0 {
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

// PopUntil removes and returns the earliest event if it is due at or before
// until; otherwise (or when the queue is empty) it leaves the queue as it
// is and ok is false.
func (q *Queue) PopUntil(until simtime.Time) (e Event, ok bool) {
	if len(q.h) == 0 || q.h[0].At > until {
		return Event{}, false
	}
	return q.Pop(), true
}

// Peek returns the earliest event without removing it; ok is false when the
// queue is empty.
func (q *Queue) Peek() (e Event, ok bool) {
	if len(q.h) == 0 {
		return Event{}, false
	}
	return q.h[0], true
}
