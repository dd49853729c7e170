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
