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

// TestMatchesReference drives Queue and the container/heap refQueue with
// the same seeded push/pop interleavings — few distinct timestamps, so most
// pushes tie — and requires identical (At, insertion) pop order and Stats.
func TestMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		var ref refQueue
		order := func() (got, want uint64) { return q.Pop().seq, ref.Pop().seq }
		spread := 1 + rng.Intn(40)
		base := simtime.Time(0)
		for op := 0; op < 4000; op++ {
			if q.Len() != ref.Len() {
				t.Fatalf("seed %d op %d: len %d, reference %d", seed, op, q.Len(), ref.Len())
			}
			// Bursts of pushes and pops so the depth wanders between 0
			// and a few hundred.
			if q.Len() == 0 || rng.Intn(100) < 55 {
				at := base + simtime.Time(rng.Intn(spread))
				q.Push(at, nil)
				ref.Push(at)
				continue
			}
			head, _ := q.Peek()
			if got, want := order(); got != want {
				t.Fatalf("seed %d op %d: popped insertion #%d, reference #%d", seed, op, got, want)
			}
			// Like a simulation, never schedule before the last pop.
			base = head.At
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
	}
	t.Run("adversarial", adversarialAgainstReference)
}

// adversarialAgainstReference aims the same differential check at the
// branch-free child selection in Pop: timestamps that tie in long runs (so
// only the insertion sequence decides), that sit at the ends of the int64
// range (0, negative, simtime.Never — the sign-bit flip must order them),
// and fill-then-drain cycles whose depth passes through every n mod 4, so
// both the four-wide path and each size of partial last group are taken,
// up to depth 4096.
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
					at := gen(rng, pushes)
					pushes++
					q.Push(at, nil)
					ref.Push(at)
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

// TestPushPopAllocFree is the floor the value-typed heap exists for: at a
// steady depth, a pop followed by a push allocates nothing.
func TestPushPopAllocFree(t *testing.T) {
	const depth = 1024
	rng := rand.New(rand.NewSource(1))
	var q Queue
	fn := func() {}
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
}
