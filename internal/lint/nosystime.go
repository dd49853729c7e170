package lint

import (
	"go/ast"
	"go/types"
)

// bannedTimeFuncs are the package time entry points that read or depend on
// the host's clock. Types and constants (time.Duration, time.Microsecond)
// remain usable: the simulator aliases its Duration to time.Duration so the
// stdlib constants compose.
var bannedTimeFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

// NoSysTime forbids host-clock access in simulation packages. All
// simulated components must derive time from the kernel's virtual clock
// (internal/simtime, sim.Kernel.Now); a single wall-clock read makes a run
// unreproducible. The only sanctioned gateway to the host clock is
// internal/simtime's Stopwatch, used for host-overhead profiling (Fig 11).
// The check is direct: a banned time.* selector in the package under
// analysis. It runs on every module package a simulation package can
// import, so a read one call hop away is reported where it happens.
var NoSysTime = &Analyzer{
	Name: "nosystime",
	Doc: "forbid time.Now/Sleep/Since and friends in simulation packages; " +
		"all time must flow through internal/simtime",
	Run: runNoSysTime,
}

func runNoSysTime(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
				return true
			}
			if fn, ok := obj.(*types.Func); ok && bannedTimeFuncs[fn.Name()] {
				pass.Reportf(sel.Pos(),
					"time.%s reads the host clock in simulation code; use the injected simtime clock (kernel.Now / simtime.Stopwatch)",
					fn.Name())
			}
			return true
		})
	}
	return nil
}
