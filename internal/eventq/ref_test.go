package eventq

import (
	"container/heap"

	"vedrfolnir/internal/simtime"
)

// refQueue is the container/heap queue over *refEvent that Queue replaced,
// kept as the reference the differential tests compare pop order and Stats
// against. It has no lanes: PushAfter(now, d) is Push(now+d) to it.
type refQueue struct {
	h     refHeap
	seq   uint64
	stats Stats
}

type refEvent struct {
	at  simtime.Time
	seq uint64
}

func (q *refQueue) Len() int { return len(q.h) }

func (q *refQueue) Push(at simtime.Time) {
	q.seq++
	heap.Push(&q.h, &refEvent{at: at, seq: q.seq})
	q.stats.Pushes++
	if n := len(q.h); n > q.stats.MaxLen {
		q.stats.MaxLen = n
	}
}

// Peek returns the earliest event without removing it, nil when empty.
func (q *refQueue) Peek() *refEvent {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

func (q *refQueue) Pop() *refEvent {
	if len(q.h) == 0 {
		return nil
	}
	q.stats.Pops++
	return heap.Pop(&q.h).(*refEvent)
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }

func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *refHeap) Push(x any) { *h = append(*h, x.(*refEvent)) }

func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
