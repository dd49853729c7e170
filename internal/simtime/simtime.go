// Package simtime provides the time, duration and rate arithmetic used by
// the discrete-event network simulator. All simulation timestamps are
// nanoseconds from the start of the simulation, kept in int64 so that event
// ordering is exact and runs are reproducible.
package simtime

import (
	"fmt"
	"time"
)

// Time is an absolute simulation timestamp in nanoseconds since the start of
// the run. The zero Time is the start of the simulation.
type Time int64

// Duration is a span of simulation time. It aliases time.Duration so the
// stdlib constants (time.Microsecond etc.) compose directly.
type Duration = time.Duration

// Never is a sentinel Time later than any reachable simulation instant.
const Never Time = 1<<63 - 1

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// After reports whether t is later than u.
func (t Time) After(u Time) bool { return t > u }

// String renders the timestamp as a duration offset, e.g. "1.5ms".
func (t Time) String() string {
	if t == Never {
		return "never"
	}
	return Duration(t).String()
}

// Rate is a transmission rate in bits per second.
type Rate int64

// Common rates used by the experiments.
const (
	Kbps Rate = 1e3
	Mbps Rate = 1e6
	Gbps Rate = 1e9
)

// String renders the rate in the most natural unit.
func (r Rate) String() string {
	switch {
	case r >= Gbps && r%Gbps == 0:
		return fmt.Sprintf("%dGbps", r/Gbps)
	case r >= Mbps && r%Mbps == 0:
		return fmt.Sprintf("%dMbps", r/Mbps)
	case r >= Kbps && r%Kbps == 0:
		return fmt.Sprintf("%dKbps", r/Kbps)
	default:
		return fmt.Sprintf("%dbps", int64(r))
	}
}

// Transmit returns the serialization delay of size bytes at rate r.
// A zero or negative rate yields Never-like huge duration; callers must
// configure links with positive rates.
func (r Rate) Transmit(size int64) Duration {
	if r <= 0 {
		return Duration(1<<62 - 1)
	}
	bits := int64(size) * 8
	// bits / (bits/sec) in nanoseconds: bits * 1e9 / r, computed to avoid
	// overflow for realistic sizes (size < 2^40, r >= 1e3).
	sec := bits / int64(r)
	rem := bits % int64(r)
	return Duration(sec)*time.Second + Duration(rem*int64(time.Second)/int64(r))
}

// Scale returns r scaled by num/den, guarding against zero denominators.
func (r Rate) Scale(num, den int64) Rate {
	if den == 0 {
		return r
	}
	return Rate(int64(r) * num / den)
}
