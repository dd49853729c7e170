package obs

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles is the file side of Mux's /debug/pprof: it begins a CPU
// profile into cpuPath and returns the flush that finishes it and then
// writes a heap profile to memPath. An empty path skips that profile.
// os.Exit skips defers, so a command calls flush on every exit path;
// only the first call does anything.
func StartProfiles(cpuPath, memPath string) (flush func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			_ = cpu.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	done := false
	return func() error {
		if done {
			return nil
		}
		done = true
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				errs = append(errs, fmt.Errorf("cpu profile: %w", err))
			}
		}
		if memPath != "" {
			if err := writeHeapProfile(memPath); err != nil {
				errs = append(errs, fmt.Errorf("heap profile: %w", err))
			}
		}
		return errors.Join(errs...)
	}, nil
}

// writeHeapProfile garbage-collects first, so the profile shows live data
// and not garbage awaiting collection.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
