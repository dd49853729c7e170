package stats

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"vedrfolnir/internal/simtime"
)

func ms(x int64) simtime.Duration { return simtime.Duration(x) * time.Millisecond }

func TestSummarizeKnown(t *testing.T) {
	sample := []simtime.Duration{ms(1), ms(2), ms(3), ms(4), ms(5), ms(6), ms(7), ms(8), ms(9), ms(10)}
	s := Summarize(sample)
	if s.N != 10 || s.Min != ms(1) || s.Max != ms(10) {
		t.Fatalf("summary = %+v", s)
	}
	if s.P50 != ms(5) {
		t.Fatalf("p50 = %v, want 5ms", s.P50)
	}
	if s.P90 != ms(9) {
		t.Fatalf("p90 = %v, want 9ms", s.P90)
	}
	if s.Mean != ms(5)+500*time.Microsecond {
		t.Fatalf("mean = %v, want 5.5ms", s.Mean)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Max != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

// Property: percentiles are monotone and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		sample := make([]simtime.Duration, n)
		for i := range sample {
			sample[i] = simtime.Duration(rng.Int63n(1e9))
		}
		sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
		last := sample[0]
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(sample, p)
			if v < last || v < sample[0] || v > sample[n-1] {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
