package obs

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	flush, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(mem); err == nil {
		t.Error("heap profile written before flush")
	}
	if err := flush(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: empty or missing after flush (%v)", path, err)
		}
	}
	// Exit paths overlap (a deferred flush behind an explicit one): the
	// second call must leave the finished files alone.
	if err := os.Remove(mem); err != nil {
		t.Fatal(err)
	}
	if err := flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(mem); err == nil {
		t.Error("second flush rewrote the heap profile")
	}

	// No paths: nothing started, nothing written, and the CPU profiler is
	// free again (a second StartCPUProfile while one runs would fail).
	flush, err = StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := StartProfiles(filepath.Join(dir, "missing", "cpu.pprof"), ""); err == nil {
		t.Error("uncreatable CPU profile path must fail at start")
	}
	flush, err = StartProfiles("", filepath.Join(dir, "missing", "mem.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	if err := flush(); err == nil {
		t.Error("uncreatable heap profile path must fail at flush")
	}
}
