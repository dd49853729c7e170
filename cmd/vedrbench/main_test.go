package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
)

var benchPath string

// TestMain builds the binary once: the tests drive it as a user would,
// signals included.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "vedrbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	benchPath = filepath.Join(dir, "vedrbench")
	build := exec.Command("go", "build", "-o", benchPath, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "build vedrbench:", err)
		os.Exit(1)
	}
	code := m.Run()
	_ = os.RemoveAll(dir)
	os.Exit(code)
}

// timing matches the per-section "(<title> in <duration>)" lines, the
// only wall-clock bytes on stdout outside Fig 11.
var timing = regexp.MustCompile(`(?m)^\(.* in [^)]*\)\n`)

// runBench runs vedrbench to completion and returns its exit code, stdout
// with the timing lines removed, and stderr.
func runBench(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	cmd := exec.Command(benchPath, args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return code, timing.ReplaceAllString(out.String(), ""), errb.String()
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestResumeTornJournal tears a finished journal mid-line, as a kill
// during an append would, and reruns the same command: the run reports
// the corrupt line once, re-runs only the lost jobs, prints the same rows
// and compacts the journal back to the unbroken run's bytes.
func TestResumeTornJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two sweeps")
	}
	base := filepath.Join(t.TempDir(), "j")
	args := []string{"-fig", "ext", "-scale", "360", "-workers", "2", "-journal", base}
	code, out1, err1 := runBench(t, args...)
	if code != 0 {
		t.Fatalf("first run exited %d:\n%s", code, err1)
	}
	path := base + ".slowdowns.jsonl"
	want := readFile(t, path)

	// Keep the header and the first half of the records whole, then half
	// of the next record's line, without its newline.
	lines := bytes.SplitAfter(want, []byte("\n"))
	mid := len(lines) / 2
	torn := bytes.Join(lines[:mid], nil)
	torn = append(torn, lines[mid][:len(lines[mid])/2]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	code, out2, err2 := runBench(t, args...)
	if code != 0 {
		t.Fatalf("resumed run exited %d:\n%s", code, err2)
	}
	msg := fmt.Sprintf("vedrbench: journal %s: skipped 1 corrupt line(s); those jobs re-run\n", path)
	if n := strings.Count(err2, "corrupt line"); n != 1 || !strings.Contains(err2, msg) {
		t.Errorf("stderr reports %d corrupt-line message(s), want exactly %q:\n%s", n, msg, err2)
	}
	// lines ends with the empty string after the final newline.
	if s := fmt.Sprintf("slowdowns summary cases=%d done=%d failed=0 skipped=%d pending=0",
		len(lines)-2, len(lines)-1-mid, mid-1); !strings.Contains(err2, s) {
		t.Errorf("stderr lacks %q:\n%s", s, err2)
	}
	if got := readFile(t, path); !bytes.Equal(got, want) {
		t.Errorf("resumed journal (%d bytes) differs from the unbroken run's (%d bytes)", len(got), len(want))
	}
	if out1 != out2 {
		t.Errorf("resumed stdout differs:\n%s\nvs\n%s", out2, out1)
	}
}

// TestInterruptThenResume sends SIGINT once the first case is merged: the
// run exits 3 with the resume hint, and rerunning the same command
// completes the journal to an unbroken run's bytes.
func TestInterruptThenResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three sweeps")
	}
	dir := t.TempDir()
	args := func(base string) []string {
		return []string{"-fig", "12", "-scale", "360", "-workers", "1", "-journal", filepath.Join(dir, base)}
	}
	code, want, errs := runBench(t, args("unbroken")...)
	if code != 0 {
		t.Fatalf("unbroken run exited %d:\n%s", code, errs)
	}

	cmd := exec.Command(benchPath, args("broken")...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		log.WriteString(sc.Text() + "\n")
		if strings.HasPrefix(sc.Text(), "sweep: 1/") {
			if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	rest, _ := io.ReadAll(stderr)
	log.Write(rest)
	err = cmd.Wait()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != exitInterrupted {
		t.Fatalf("interrupted run: %v, want exit %d:\n%s", err, exitInterrupted, log.String())
	}
	for _, s := range []string{"interrupted=1", "rerun the same command to resume"} {
		if !strings.Contains(log.String(), s) {
			t.Errorf("interrupted run's stderr lacks %q:\n%s", s, log.String())
		}
	}

	code, got, errs := runBench(t, args("broken")...)
	if code != 0 {
		t.Fatalf("resumed run exited %d:\n%s", code, errs)
	}
	if got != want {
		t.Errorf("resumed stdout differs:\n%s\nvs\n%s", got, want)
	}
	if a, b := readFile(t, filepath.Join(dir, "unbroken.fig12.jsonl")), readFile(t, filepath.Join(dir, "broken.fig12.jsonl")); !bytes.Equal(a, b) {
		t.Errorf("resumed journal (%d bytes) differs from the unbroken run's (%d bytes)", len(b), len(a))
	}
}

func TestUnknownFigure(t *testing.T) {
	code, _, errs := runBench(t, "-fig", "99")
	if code != 2 || errs != "unknown figure \"99\"\n" {
		t.Fatalf("exit %d, stderr %q; want 2 and the figure named", code, errs)
	}
}
