package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is a vedranalyzerd child in its own process group, so that the
// shard children of a -cluster run die with it on every path.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer

	mu     sync.Mutex
	lines  []string
	exited chan struct{} // closed once stdout hit EOF and the child was reaped
	err    error         // the child's exit status, valid after exited
}

// startDaemon launches the binary and waits for its announce line.
func startDaemon(bin string, args ...string) (*daemon, error) {
	d := &daemon{cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	d.cmd.Stderr = &d.stderr
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	announced := make(chan string, 1)
	go func() {
		defer close(d.exited)
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.lines = append(d.lines, line)
			d.mu.Unlock()
			if addr, ok := strings.CutPrefix(line, "analyzer listening on "); ok {
				select {
				case announced <- addr:
				default:
				}
			}
		}
		d.err = d.cmd.Wait()
	}()
	select {
	case d.addr = <-announced:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("%s exited before announcing: %v\n%s", filepath.Base(bin), d.err, d.stderr.String())
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("%s did not announce within 30 s", filepath.Base(bin))
	}
}

// kill SIGKILLs the daemon's whole process group and reaps it. Safe to
// call after the daemon has exited.
func (d *daemon) kill() {
	_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL) // the group may already be gone
	<-d.exited
}

// drain SIGTERMs the daemon and returns everything it printed once it has
// exited.
func (d *daemon) drain() ([]string, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return nil, err
	}
	select {
	case <-d.exited:
	case <-time.After(120 * time.Second):
		d.kill()
		return nil, fmt.Errorf("daemon did not drain within 120 s")
	}
	if d.err != nil {
		return nil, fmt.Errorf("daemon exited: %v\n%s", d.err, d.stderr.String())
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.lines...), nil
}

// shardPid returns the pid in shard i's latest announce line (-1 before
// the first).
func (d *daemon) shardPid(i int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	pid := -1
	prefix := fmt.Sprintf("shard %d listening on ", i)
	for _, l := range d.lines {
		if rest, ok := strings.CutPrefix(l, prefix); ok {
			var addr string
			var p int
			if _, err := fmt.Sscanf(rest, "%s (pid %d)", &addr, &p); err == nil {
				pid = p
			}
		}
	}
	return pid
}

// daemonArgs is the vedranalyzerd command line for a WAL under dir with the
// given -fsync policy; every policy but "off" also snapshots.
func daemonArgs(c *runCtx, dir, fsync string, cluster int) []string {
	args := []string{"-listen", "127.0.0.1:0", "-json", "-wal-dir", dir, "-fsync", fsync}
	if cluster > 0 {
		args = append(args, "-cluster", fmt.Sprint(cluster))
	}
	if fsync != "off" {
		args = append(args, "-snapshot-every", fmt.Sprint(c.size.SnapshotEvery))
	}
	return args
}
