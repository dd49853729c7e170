package simtime

import "time"

// Stopwatch measures elapsed host wall-clock time. Simulation code never
// reads the system clock directly (the nosystime invariant); the few places
// that legitimately need real elapsed time — the Fig 11 host-overhead
// measurement — take a Stopwatch so tests can substitute a fake and so every
// wall-clock read in the tree funnels through this package, the one
// sanctioned gateway.
type Stopwatch interface {
	// Start resets the stopwatch to the current instant.
	Start()
	// Elapsed returns the time since the last Start (or construction).
	// The system stopwatch's Elapsed only reads, so goroutines may share
	// one between Starts (vedrsim's stage clock does).
	Elapsed() Duration
}

// NewSystemStopwatch returns a Stopwatch backed by the system monotonic
// clock, started at the current instant.
func NewSystemStopwatch() Stopwatch {
	return &systemStopwatch{start: time.Now()}
}

type systemStopwatch struct{ start time.Time }

func (s *systemStopwatch) Start()            { s.start = time.Now() }
func (s *systemStopwatch) Elapsed() Duration { return time.Since(s.start) }
