// Package stats provides the small summary-statistics helpers the
// experiment harnesses use: percentiles and means over durations (step
// times, slowdowns, RTTs).
package stats

import (
	"fmt"
	"math"
	"sort"

	"vedrfolnir/internal/simtime"
)

// Summary holds order statistics of a duration sample.
type Summary struct {
	N             int
	Min, Max      simtime.Duration
	Mean          simtime.Duration
	P50, P90, P99 simtime.Duration
	Stddev        simtime.Duration
}

// Summarize computes order statistics. An empty sample yields a zero
// Summary.
func Summarize(sample []simtime.Duration) Summary {
	if len(sample) == 0 {
		return Summary{}
	}
	s := make([]simtime.Duration, len(sample))
	copy(s, sample)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })

	var sum, sumSq float64
	for _, v := range s {
		f := float64(v)
		sum += f
		sumSq += f * f
	}
	n := float64(len(s))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		N:      len(s),
		Min:    s[0],
		Max:    s[len(s)-1],
		Mean:   simtime.Duration(mean),
		P50:    Percentile(s, 50),
		P90:    Percentile(s, 90),
		P99:    Percentile(s, 99),
		Stddev: simtime.Duration(math.Sqrt(variance)),
	}
}

// Percentile returns the p-th percentile (nearest-rank) of a sorted sample.
func Percentile(sorted []simtime.Duration, p float64) simtime.Duration {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%v p50=%v p90=%v p99=%v max=%v mean=%v sd=%v",
		s.N, s.Min, s.P50, s.P90, s.P99, s.Max, s.Mean, s.Stddev)
}
