// Package eventq implements the priority queue that orders discrete
// simulation events. Events with equal timestamps dequeue in the order they
// were scheduled (FIFO tie-break), which keeps simulations deterministic.
//
// Events scheduled a fixed delay after a clock that never runs backwards
// arrive already sorted, so PushAfter files them in constant-delay FIFO
// lanes beside the heap; only the rest (absolute times, delays without a
// lane) are sorted. The pop order is (At, insertion order) either way.
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

// lanes is how many distinct PushAfter delays get a FIFO of their own. A
// case's first delay is the stall watchdog's and a few rare ones claim
// lanes early too; with 4 lanes a PFC frame's delay took the last one
// before the ACK's in some PFC cases. 8 keep link propagation, ACK and
// cell serialisation laned in every benchmark case.
const lanes = 8

// Queue.full has a bit per lane: this constant fails to compile when lanes
// outgrows a uint8.
const _ = uint8(1<<lanes - 1)

// lane is a FIFO of events pushed with one delay, in (At, seq) order. Like
// fabric's fifo it pops by advancing head, so a lane that cycles reuses its
// backing array.
type lane struct {
	buf  []Event
	head int
}

func (l *lane) push(e Event) {
	// When full and at least half the array is popped prefix, reclaim it
	// rather than let append copy the dead entries into a bigger array.
	if len(l.buf) == cap(l.buf) && l.head > 0 && l.head >= len(l.buf)/2 {
		n := copy(l.buf, l.buf[l.head:])
		clear(l.buf[n:])
		l.buf, l.head = l.buf[:n], 0
	}
	l.buf = append(l.buf, e)
}

func (l *lane) pop() Event {
	e := l.buf[l.head]
	l.buf[l.head] = Event{} // drop the callback reference
	l.head++
	if l.head == len(l.buf) {
		l.buf, l.head = l.buf[:0], 0
	}
	return e
}

// Queue is a 4-ary min-heap of events keyed by (At, insertion order), plus
// up to lanes constant-delay FIFOs that PushAfter fills without sorting.
// Events are stored by value, so pushes and pops allocate nothing once the
// backing arrays have grown to the run's depth. The zero Queue is ready to
// use.
type Queue struct {
	h      []Event
	n      int                     // pending events, heap and lanes
	nl     int                     // lanes claimed so far
	full   uint8                   // bit i set: lane i is not empty
	delays [lanes]simtime.Duration // delays[i] owns lane[i], for i < nl
	lane   [lanes]lane
	ls     LaneStats
	stats  Stats
}

// heapSrc names the heap where head and take name a source; lanes are 0
// to lanes-1.
const heapSrc = -1

// Len returns the number of pending events.
func (q *Queue) Len() int { return q.n }

// Stats returns the queue's lifetime traffic counters.
func (q *Queue) Stats() Stats { return q.stats }

// LaneStats counts the PushAfter share of a queue's pushes: how many
// events were scheduled a delay after now, and how many of those joined a
// lane rather than the heap.
type LaneStats struct {
	After uint64
	Laned uint64
}

// LaneStats returns the queue's lifetime PushAfter counters.
func (q *Queue) LaneStats() LaneStats { return q.ls }

// counted records one push: it returns the event's insertion sequence and
// raises the depth high-water mark.
func (q *Queue) counted() uint64 {
	q.stats.Pushes++ // doubles as the insertion sequence number
	q.n++
	if q.n > q.stats.MaxLen {
		q.stats.MaxLen = q.n
	}
	return q.stats.Pushes
}

// Push schedules fn at time at.
func (q *Queue) Push(at simtime.Time, fn func()) {
	q.pushHeap(Event{At: at, Fn: fn, seq: q.counted()})
}

// PushAfter schedules fn at now+d. The first time a delay is seen it claims
// a free lane and keeps it for the queue's lifetime; an event with a laned
// delay joins the back of its lane, which stays in (At, seq) order as long
// as now never decreases between calls. An event that would break that
// order (now ran backwards), or whose delay found every lane taken, goes
// on the heap, so the pop order is (At, insertion order) for any caller.
func (q *Queue) PushAfter(now simtime.Time, d simtime.Duration, fn func()) {
	e := Event{At: now.Add(d), Fn: fn, seq: q.counted()}
	q.ls.After++
	i := 0
	for i < q.nl && q.delays[i] != d {
		i++
	}
	if i == q.nl {
		if i == lanes {
			q.pushHeap(e)
			return
		}
		q.delays[i] = d
		q.nl++
	}
	l := &q.lane[i]
	if n := len(l.buf); n > l.head && l.buf[n-1].At > e.At {
		q.pushHeap(e)
		return
	}
	q.ls.Laned++
	q.full |= 1 << i
	l.push(e)
}

// pushHeap sifts e into the heap.
func (q *Queue) pushHeap(e Event) {
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
}

// head returns the source of the earliest pending event — heapSrc or a
// lane — and the event. The queue must not be empty. Only non-empty lanes
// are visited: the rare delays' lanes are empty most of the time, and
// reading their heads cost more than the rest of the compare.
func (q *Queue) head() (src int, e *Event) {
	src = heapSrc
	if len(q.h) > 0 {
		e = &q.h[0]
	}
	for m := q.full; m != 0; m &= m - 1 {
		i := bits.TrailingZeros8(m)
		l := &q.lane[i]
		if c := &l.buf[l.head]; e == nil || c.less(e) {
			src, e = i, c
		}
	}
	return src, e
}

// take removes and returns the head event of src.
func (q *Queue) take(src int) Event {
	q.n--
	q.stats.Pops++
	if src == heapSrc {
		return q.popHeap()
	}
	l := &q.lane[src]
	e := l.pop()
	if l.head == len(l.buf) {
		q.full &^= 1 << src
	}
	return e
}

// Pop removes and returns the earliest event, or the zero Event when the
// queue is empty (check Len first where that can happen). The kernel runs
// PopUntil; Pop stays for the benchmark's event-queue hold model.
func (q *Queue) Pop() Event {
	if q.n == 0 {
		return Event{}
	}
	src, _ := q.head()
	return q.take(src)
}

// popHeap removes and returns the heap's earliest event; the heap must not
// be empty.
func (q *Queue) popHeap() Event {
	h := q.h
	n := len(h) - 1
	e, last := h[0], h[n]
	h[n] = Event{} // drop the callback reference
	h = h[:n]
	q.h = h
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
	if q.n == 0 {
		return Event{}, false
	}
	src, h := q.head()
	if h.At > until {
		return Event{}, false
	}
	return q.take(src), true
}

// Peek returns the earliest event without removing it; ok is false when the
// queue is empty. Only tests call it: it is how the eventq tests and
// FuzzQueueMatchesReference hold the head to the container/heap reference.
func (q *Queue) Peek() (e Event, ok bool) {
	if q.n == 0 {
		return Event{}, false
	}
	_, h := q.head()
	return *h, true
}
