package sim

import (
	"testing"
	"time"

	"vedrfolnir/internal/simtime"
)

func TestRunOrdering(t *testing.T) {
	k := New(1)
	var got []string
	k.After(2*time.Microsecond, func() { got = append(got, "b") })
	k.After(1*time.Microsecond, func() { got = append(got, "a") })
	k.After(3*time.Microsecond, func() { got = append(got, "c") })
	end := k.Run(simtime.Never)
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("order = %v", got)
	}
	if end != simtime.Time(3*time.Microsecond) {
		t.Fatalf("end = %v, want 3µs", end)
	}
}

func TestNestedScheduling(t *testing.T) {
	k := New(1)
	var seen []simtime.Time
	k.After(time.Microsecond, func() {
		seen = append(seen, k.Now())
		k.After(time.Microsecond, func() {
			seen = append(seen, k.Now())
		})
	})
	k.Run(simtime.Never)
	if len(seen) != 2 {
		t.Fatalf("seen = %v", seen)
	}
	if seen[0] != simtime.Time(time.Microsecond) || seen[1] != simtime.Time(2*time.Microsecond) {
		t.Fatalf("times = %v", seen)
	}
}

func TestRunUntil(t *testing.T) {
	k := New(1)
	fired := 0
	k.After(time.Millisecond, func() { fired++ })
	k.After(time.Second, func() { fired++ })
	k.Run(simtime.Time(10 * time.Millisecond))
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (late event must not run)", fired)
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", k.Pending())
	}
}

func TestRunAdvancesToDeadlineWhenDrained(t *testing.T) {
	k := New(1)
	k.After(time.Microsecond, nil)
	k.Run(simtime.Time(5 * time.Microsecond))
	if k.Now() != simtime.Time(5*time.Microsecond) {
		t.Fatalf("now = %v, want 5µs", k.Now())
	}
}

func TestStop(t *testing.T) {
	k := New(1)
	count := 0
	for i := 0; i < 10; i++ {
		k.After(time.Duration(i)*time.Microsecond, func() {
			count++
			if count == 3 {
				k.Stop()
			}
		})
	}
	k.Run(simtime.Never)
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := New(1)
	k.After(time.Microsecond, func() {
		defer func() {
			if recover() == nil {
				t.Errorf("expected panic scheduling in the past")
			}
		}()
		k.At(0, nil)
	})
	k.Run(simtime.Never)
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		k := New(42)
		var out []int64
		for i := 0; i < 100; i++ {
			k.After(simtime.Duration(k.Rand().Intn(1000)), func() {
				out = append(out, int64(k.Now()))
			})
		}
		k.Run(simtime.Never)
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestEventLimit(t *testing.T) {
	k := New(1)
	k.SetEventLimit(10)
	var reschedule func()
	reschedule = func() { k.After(time.Nanosecond, reschedule) }
	k.After(0, reschedule)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected event-limit panic")
		}
	}()
	k.Run(simtime.Never)
}

// TestAfterMatchesAt holds the kernel's two ways of scheduling to one
// order: a run whose handlers schedule with After (the queue's lanes, more
// delays than there are lanes) executes the same events at the same times
// in the same order as the run that schedules every one of them with
// At(Now()+d) (the heap alone), absolute-time events mixed in.
func TestAfterMatchesAt(t *testing.T) {
	delays := []simtime.Duration{0, 5, 46, 1310, 2000, 2005, 4010, 8020, 12_030, 13_750, 138_888}
	run := func(after bool) []int64 {
		k := New(7)
		var log []int64
		schedule := func(d simtime.Duration, fn func()) {
			if after {
				k.After(d, fn)
			} else {
				k.At(k.Now().Add(d), fn)
			}
		}
		var spawn func(id int64) func()
		spawn = func(id int64) func() {
			return func() {
				log = append(log, id, int64(k.Now()))
				if len(log) > 40_000 {
					return
				}
				for i := 0; i < 1+k.Rand().Intn(2); i++ {
					child := id*3 + int64(i) + 1
					if k.Rand().Intn(10) == 0 {
						k.At(k.Now()+simtime.Time(k.Rand().Intn(3000)), spawn(child))
						continue
					}
					schedule(delays[k.Rand().Intn(len(delays))], spawn(child))
				}
			}
		}
		for i := int64(0); i < 50; i++ {
			schedule(delays[i%int64(len(delays))], spawn(i*1000))
		}
		k.Run(simtime.Never)
		if st := k.q.Stats(); after && k.LaneStats().Laned == 0 || !after && k.LaneStats().After != 0 {
			t.Fatalf("after=%v: lane stats %+v with queue stats %+v", after, k.LaneStats(), st)
		}
		return log
	}
	a, b := run(true), run(false)
	if len(a) != len(b) {
		t.Fatalf("After run logged %d values, At run %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at value %d: %d (After) vs %d (At)", i, a[i], b[i])
		}
	}
}

// TestAfterOverflowPanics keeps After's causality check: a delay that
// overflows the clock into the past panics like At does, rather than
// joining a lane.
func TestAfterOverflowPanics(t *testing.T) {
	k := New(1)
	k.After(time.Microsecond, func() {
		defer func() {
			if recover() == nil {
				t.Errorf("expected panic for a delay that overflows the clock")
			}
		}()
		k.After(simtime.Duration(simtime.Never), nil)
	})
	k.Run(simtime.Never)
}
