package eventq

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vedrfolnir/internal/simtime"
)

func TestOrdering(t *testing.T) {
	var q Queue
	var got []int
	q.Push(30, func() { got = append(got, 3) })
	q.Push(10, func() { got = append(got, 1) })
	q.Push(20, func() { got = append(got, 2) })
	for q.Len() > 0 {
		q.Pop().Fn()
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.Push(42, func() { got = append(got, i) })
	}
	for q.Len() > 0 {
		q.Pop().Fn()
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestPeek(t *testing.T) {
	var q Queue
	if _, ok := q.Peek(); ok {
		t.Fatalf("Peek on empty should report !ok")
	}
	q.Push(9, nil)
	q.Push(4, nil)
	if e, ok := q.Peek(); !ok || e.At != 4 {
		t.Fatalf("Peek = %v, %v, want At 4", e.At, ok)
	}
	if q.Len() != 2 {
		t.Fatalf("Peek must not remove; len=%d", q.Len())
	}
}

func TestPopEmpty(t *testing.T) {
	var q Queue
	if e := q.Pop(); e.Fn != nil || e.At != 0 || q.Stats().Pops != 0 {
		t.Fatalf("Pop on empty = %+v, stats %+v; want zero event, no pop counted", e, q.Stats())
	}
}

// Property: popping a randomly-filled queue always yields non-decreasing
// timestamps.
func TestHeapInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		for i := 0; i < 200; i++ {
			q.Push(simtime.Time(rng.Intn(50)), nil)
		}
		last := simtime.Time(-1)
		for q.Len() > 0 {
			e := q.Pop()
			if e.At < last {
				return false
			}
			last = e.At
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStats(t *testing.T) {
	var q Queue
	if got := q.Stats(); got != (Stats{}) {
		t.Fatalf("fresh queue stats = %+v, want zero", got)
	}
	q.Push(3, nil)
	q.Push(1, nil)
	q.Push(2, nil)
	if got := q.Stats(); got.Pushes != 3 || got.MaxLen != 3 {
		t.Errorf("after pushes: %+v, want Pushes=3 MaxLen=3", got)
	}
	for q.Len() > 0 {
		q.Pop()
	}
	got := q.Stats()
	if got.Pops != 3 {
		t.Errorf("pops = %d, want 3", got.Pops)
	}
	if got.MaxLen != 3 {
		t.Errorf("MaxLen = %d, want high-water mark 3 after drain", got.MaxLen)
	}
}

// testDelays are the PushAfter delays the differential tests draw from:
// more of them than there are lanes, so some delays find every lane taken
// and go to the heap, and small enough that lane, heap and cross-lane
// pushes tie on At and only the insertion sequence orders them.
var testDelays = []simtime.Duration{0, 1, 2, 3, 5, 7, 11, 13, 17, 40, 1000, 1 << 40}

// pushEither pushes an event due at at through Push or, two times in
// three, through PushAfter with a random test delay from a now that makes
// it due at the same time; ref gets the same event as a plain push.
func pushEither(rng *rand.Rand, q *Queue, ref *refQueue, at simtime.Time) {
	if rng.Intn(3) == 0 {
		q.Push(at, nil)
	} else {
		d := testDelays[rng.Intn(len(testDelays))]
		q.PushAfter(at-simtime.Time(d), d, nil) // wraps and unwraps at the int64 ends
	}
	ref.Push(at)
}

// TestMatchesReference drives Queue and the container/heap refQueue with
// the same seeded push/pop interleavings — few distinct timestamps, so most
// pushes tie, and a mix of heap pushes and PushAfter with more distinct
// delays than lanes — and requires identical (At, insertion) pop order,
// heads and Stats.
func TestMatchesReference(t *testing.T) {
	if len(testDelays) <= lanes {
		t.Fatalf("%d test delays do not overflow %d lanes", len(testDelays), lanes)
	}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		var ref refQueue
		order := func() (got, want uint64) { return q.Pop().seq, ref.Pop().seq }
		spread := 1 + rng.Intn(40)
		now := simtime.Time(0)
		for op := 0; op < 4000; op++ {
			if q.Len() != ref.Len() {
				t.Fatalf("seed %d op %d: len %d, reference %d", seed, op, q.Len(), ref.Len())
			}
			// Bursts of pushes and pops so the depth wanders between 0
			// and a few hundred.
			if q.Len() == 0 || rng.Intn(100) < 55 {
				// Like a simulation, never schedule before the last pop:
				// a heap push lands in [now, now+spread), a laned one at
				// now plus its delay.
				if rng.Intn(3) == 0 {
					at := now + simtime.Time(rng.Intn(spread))
					q.Push(at, nil)
					ref.Push(at)
				} else {
					d := testDelays[rng.Intn(len(testDelays))]
					q.PushAfter(now, d, nil)
					ref.Push(now.Add(d))
				}
				continue
			}
			head, _ := q.Peek()
			if want := ref.Peek(); head.seq != want.seq || head.At != want.at {
				t.Fatalf("seed %d op %d: Peek (%d, #%d), reference (%d, #%d)", seed, op, head.At, head.seq, want.at, want.seq)
			}
			if got, want := order(); got != want {
				t.Fatalf("seed %d op %d: popped insertion #%d, reference #%d", seed, op, got, want)
			}
			now = head.At
		}
		for ref.Len() > 0 {
			if got, want := order(); got != want {
				t.Fatalf("seed %d drain: popped insertion #%d, reference #%d", seed, got, want)
			}
		}
		if q.Len() != 0 {
			t.Fatalf("seed %d: %d events left after the reference drained", seed, q.Len())
		}
		if q.Stats() != ref.stats {
			t.Fatalf("seed %d: stats %+v, reference %+v", seed, q.Stats(), ref.stats)
		}
		if q.nl != lanes {
			t.Fatalf("seed %d: %d lanes claimed, want all %d", seed, q.nl, lanes)
		}
	}
	t.Run("adversarial", adversarialAgainstReference)
}

// adversarialAgainstReference aims the same differential check at the
// branch-free child selection in Pop and at the lanes: timestamps that tie
// in long runs (so only the insertion sequence decides), that sit at the
// ends of the int64 range (0, negative, simtime.Never — the sign-bit flip
// must order them), that arrive in descending order (so a laned delay's
// now runs backwards and its push must fall back to the heap), and
// fill-then-drain cycles whose depth passes through every n mod 4, so both
// the four-wide path and each size of partial last group are taken, up to
// depth 4096. Two pushes in three go through PushAfter.
func adversarialAgainstReference(t *testing.T) {
	extremes := []simtime.Time{math.MinInt64, math.MinInt64 + 1, -1 << 40, -1, 0, 1, 1 << 40, math.MaxInt64 - 1, simtime.Never}
	gens := []struct {
		name string
		at   func(rng *rand.Rand, i int) simtime.Time // i counts the pushes so far
	}{
		{"all-equal", func(*rand.Rand, int) simtime.Time { return 0 }},
		{"all-never", func(*rand.Rand, int) simtime.Time { return simtime.Never }},
		{"two-values", func(rng *rand.Rand, _ int) simtime.Time { return simtime.Time(rng.Intn(2)) }},
		{"runs-of-equal", func(_ *rand.Rand, i int) simtime.Time { return simtime.Time(-(i / 97)) }},
		{"extremes", func(rng *rand.Rand, _ int) simtime.Time { return extremes[rng.Intn(len(extremes))] }},
		{"negative", func(rng *rand.Rand, _ int) simtime.Time { return -1 - simtime.Time(rng.Int63()) }},
		{"full-range", func(rng *rand.Rand, _ int) simtime.Time { return simtime.Time(rng.Uint64()) }},
		{"descending", func(_ *rand.Rand, i int) simtime.Time { return simtime.Never - simtime.Time(i) }},
	}
	depths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 20, 21, 22, 23, 85, 341, 1365, 4096}
	for _, g := range gens {
		name, gen := g.name, g.at
		rng := rand.New(rand.NewSource(7))
		var q Queue
		var ref refQueue
		pushes := 0
		for _, depth := range depths {
			// Fill to depth, drain a random part, refill, drain fully:
			// the second fill sifts up through a heap that pops reshaped.
			for _, drainTo := range []int{rng.Intn(depth + 1), 0} {
				for q.Len() < depth {
					pushEither(rng, &q, &ref, gen(rng, pushes))
					pushes++
				}
				for q.Len() > drainTo {
					got, want := q.Pop(), ref.Pop()
					if got.seq != want.seq || got.At != want.at {
						t.Fatalf("%s depth %d at len %d: popped (%d, #%d), reference (%d, #%d)",
							name, depth, q.Len()+1, got.At, got.seq, want.at, want.seq)
					}
				}
			}
		}
		if q.Len() != 0 || ref.Len() != 0 {
			t.Fatalf("%s: %d events left, reference %d", name, q.Len(), ref.Len())
		}
		if q.Stats() != ref.stats {
			t.Fatalf("%s: stats %+v, reference %+v", name, q.Stats(), ref.stats)
		}
	}
}

// FuzzQueueMatchesReference runs an op byte-stream against Queue and
// refQueue. Each byte is one op, its low two bits the kind and the rest an
// argument: 0 Pop, 1 PopUntil a deadline up to 63 past now, 2 Push up to 63
// past now, 3 PushAfter one of testDelays — from now, or (top bit set)
// from before it, so a lane's order can be broken and the push must go to
// the heap. now follows the pops, as in a simulation. Every op must agree
// on Len and the head; the drain, the pop order and Stats on everything.
func FuzzQueueMatchesReference(f *testing.F) {
	f.Add([]byte{3, 7, 11, 15, 19, 23, 27, 31, 35, 39, 43, 47, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 3, 3, 6, 7, 0, 131, 135, 1, 5, 0, 0, 0})
	f.Add([]byte{0, 1, 2, 3, 255, 254, 253, 252, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q Queue
		var ref refQueue
		now := simtime.Time(0)
		pop := func(i int) {
			got, want := q.Pop(), ref.Pop()
			if got.seq != want.seq || got.At != want.at {
				t.Fatalf("op %d: popped (%d, #%d), reference (%d, #%d)", i, got.At, got.seq, want.at, want.seq)
			}
			now = got.At
		}
		for i, b := range ops {
			arg := simtime.Time(b >> 2)
			switch b & 3 {
			case 0:
				if ref.Len() == 0 {
					if e := q.Pop(); e.Fn != nil || e.At != 0 || e.seq != 0 || q.Stats() != ref.stats {
						t.Fatalf("op %d: Pop on empty = %+v, stats %+v", i, e, q.Stats())
					}
					continue
				}
				pop(i)
			case 1:
				until := now + arg
				e, ok := q.PopUntil(until)
				if want := ref.Peek(); want == nil || want.at > until {
					if ok {
						t.Fatalf("op %d: PopUntil(%d) popped (%d, #%d), reference had nothing due", i, until, e.At, e.seq)
					}
					continue
				}
				if want := ref.Pop(); !ok || e.seq != want.seq || e.At != want.at {
					t.Fatalf("op %d: PopUntil(%d) = (%d, #%d, %v), reference (%d, #%d)", i, until, e.At, e.seq, ok, want.at, want.seq)
				}
				now = e.At
			case 2:
				q.Push(now+arg, nil)
				ref.Push(now + arg)
			case 3:
				d := testDelays[int(arg&31)%len(testDelays)]
				from := now
				if b&128 != 0 {
					from -= 3
				}
				q.PushAfter(from, d, nil)
				ref.Push(from.Add(d))
			}
			if q.Len() != ref.Len() {
				t.Fatalf("op %d: len %d, reference %d", i, q.Len(), ref.Len())
			}
			if head, ok := q.Peek(); ok != (ref.Len() > 0) || ok && (head.seq != ref.Peek().seq || head.At != ref.Peek().at) {
				t.Fatalf("op %d: Peek (%d, #%d, %v) disagrees with the reference", i, head.At, head.seq, ok)
			}
		}
		for ref.Len() > 0 {
			pop(len(ops))
		}
		if q.Len() != 0 {
			t.Fatalf("%d events left after the reference drained", q.Len())
		}
		if q.Stats() != ref.stats {
			t.Fatalf("stats %+v, reference %+v", q.Stats(), ref.stats)
		}
	})
}

// TestPopUntil pins the deadline call the kernel's run loop uses: it pops
// exactly when the earliest event is due at or before the deadline.
func TestPopUntil(t *testing.T) {
	var q Queue
	if _, ok := q.PopUntil(simtime.Never); ok {
		t.Fatal("PopUntil on an empty queue reported an event")
	}
	q.Push(20, nil)
	q.Push(10, nil)
	if _, ok := q.PopUntil(9); ok || q.Len() != 2 {
		t.Fatalf("PopUntil(9) popped with the earliest event at 10 (len %d)", q.Len())
	}
	if e, ok := q.PopUntil(10); !ok || e.At != 10 {
		t.Fatalf("PopUntil(10) = (%v, %v), want the event at 10", e.At, ok)
	}
	if e, ok := q.PopUntil(simtime.Never); !ok || e.At != 20 || q.Len() != 0 {
		t.Fatalf("PopUntil(Never) = (%v, %v), len %d; want the event at 20 and an empty queue", e.At, ok, q.Len())
	}
}

// TestPushPopAllocFree is the floor the value-typed heap and the recycled
// lane arrays exist for: at a steady depth, a pop followed by a push
// allocates nothing, whether the pushes go to the heap or to lanes.
func TestPushPopAllocFree(t *testing.T) {
	const depth = 1024
	fn := func() {}
	t.Run("heap", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		var q Queue
		for i := 0; i < depth; i++ {
			q.Push(simtime.Time(rng.Intn(1_000_000)), fn)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			e := q.Pop()
			q.Push(e.At+simtime.Time(1+rng.Intn(1_000_000)), fn)
		})
		if allocs != 0 {
			t.Fatalf("steady-state Pop+Push at depth %d allocates %v objects per pair, want 0", depth, allocs)
		}
	})
	t.Run("lanes", func(t *testing.T) {
		// A case kernel's mix: mostly propagation, ACK and cell delays
		// through lanes, every fifth push an absolute time on the heap.
		delays := []simtime.Duration{2000, 5, 1310, 2005}
		rng := rand.New(rand.NewSource(1))
		var q Queue
		i := 0
		op := func() {
			e := q.Pop()
			if i++; i%5 == 0 {
				q.Push(e.At+simtime.Time(1+rng.Intn(5000)), fn)
			} else {
				q.PushAfter(e.At, delays[i%len(delays)], fn)
			}
		}
		for q.Len() < depth {
			q.PushAfter(0, delays[q.Len()%len(delays)], fn)
		}
		for j := 0; j < 100_000; j++ { // grow every array to its steady size
			op()
		}
		allocs := testing.AllocsPerRun(10_000, op)
		if allocs != 0 {
			t.Fatalf("steady-state Pop+PushAfter at depth %d allocates %v objects per pair, want 0", depth, allocs)
		}
		if q.nl != len(delays) || q.Len() != depth {
			t.Fatalf("%d lanes claimed at depth %d, want %d at %d", q.nl, q.Len(), len(delays), depth)
		}
		// Reuse, not amortised growth: a lane whose popped prefix were
		// never reclaimed would grow without bound while it never empties.
		for i := 0; i < q.nl; i++ {
			if c := cap(q.lane[i].buf); c > 2*depth {
				t.Errorf("lane %d grew to %d slots at depth %d: its popped entries are not reclaimed", i, c, depth)
			}
		}
	})
}

// BenchmarkCaseMix times one pop and one push, the kernel's step, on a
// benchmark case's traffic: depth about 100, the case's first delay the
// stall watchdog's, then link propagation (47 % of pushes), ACK (25 %) and
// cell (19 %) serialisation, a few rarer delays, and 6 % absolute times.
// "lanes" schedules the delays with PushAfter, "heap" with Push, as the
// kernel did before the lanes.
func BenchmarkCaseMix(b *testing.B) {
	delays := []simtime.Duration{138_888, 2000, 5, 1310, 46, 4010, 8020, 12_030, 2005, 13_750}
	rng := rand.New(rand.NewSource(1))
	next := make([]int, 4096) // index into delays, or -1 for an absolute time
	for i := range next {
		switch r := rng.Intn(100); {
		case r < 6:
			next[i] = -1
		case r < 53:
			next[i] = 1
		case r < 78:
			next[i] = 2
		case r < 97:
			next[i] = 3
		default:
			next[i] = 4 + rng.Intn(len(delays)-4)
		}
	}
	for _, laned := range []bool{true, false} {
		name := "heap"
		if laned {
			name = "lanes"
		}
		b.Run(name, func(b *testing.B) {
			var q Queue
			after := func(now simtime.Time, d simtime.Duration) {
				if laned {
					q.PushAfter(now, d, nil)
				} else {
					q.Push(now.Add(d), nil)
				}
			}
			after(0, delays[0])
			for q.Len() < 100 {
				after(0, delays[1+q.Len()%3])
			}
			step := func(i int) {
				e := q.Pop()
				if d := next[i&4095]; d < 0 {
					q.Push(e.At+simtime.Time(1+i&1023), nil)
				} else {
					after(e.At, delays[d])
				}
			}
			for i := 0; i < 100_000; i++ {
				step(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(i)
			}
		})
	}
}
