// Package obs is the repository's zero-dependency observability layer:
// sim-time tracing (Chrome trace-event JSON, Perfetto-loadable), a
// counters/gauges/histograms registry with Prometheus-text and expvar
// rendering, and structured logging with a sim-time attribute.
//
// Everything here obeys the tree's determinism invariants. Trace
// timestamps, metric values, and log attributes derive exclusively from
// simulation time — the package never reads the host clock (enforced by
// the nosystime lint rule) — so a trace file is
// byte-identical across runs and worker counts, and an enabled scope
// never perturbs the simulation it observes. Every recording method is a
// no-op on a nil receiver, so instrumented code calls unconditionally and
// a disabled scope costs a nil check.
package obs

import "log/slog"

// Scope bundles the three observability facilities threaded through a
// run. Any field may be nil; the zero Scope (and a nil *Scope) disables
// everything.
type Scope struct {
	// Trace receives sim-time spans and instants.
	Trace *Tracer
	// Metrics receives counters, gauges, and histograms.
	Metrics *Registry
	// Log receives structured log records; nil discards them.
	Log *slog.Logger
}

// T returns the scope's tracer; nil (a valid no-op tracer) when the scope
// is nil or tracing is off.
func (s *Scope) T() *Tracer {
	if s == nil {
		return nil
	}
	return s.Trace
}

// M returns the scope's registry; nil (a valid no-op registry) when the
// scope is nil or metrics are off.
func (s *Scope) M() *Registry {
	if s == nil {
		return nil
	}
	return s.Metrics
}

// L returns the scope's logger, or a discard logger when unset — callers
// never need a nil check.
func (s *Scope) L() *slog.Logger {
	if s == nil || s.Log == nil {
		return nopLogger
	}
	return s.Log
}

// Enabled reports whether any facility is active.
func (s *Scope) Enabled() bool {
	return s != nil && (s.Trace != nil || s.Metrics != nil || s.Log != nil)
}
