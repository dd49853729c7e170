package main

import (
	"fmt"
	"strings"
	"syscall"
	"testing"
	"time"

	"vedrfolnir/internal/analyzerd"
	"vedrfolnir/internal/wire"
)

// shardPid scans the captured announce lines for shard i's most recent
// incarnation and returns its pid (-1 when it never announced).
func (d *daemon) shardPid(i int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	pid := -1
	prefix := fmt.Sprintf("shard %d listening on ", i)
	for _, l := range d.lines {
		rest, ok := strings.CutPrefix(l, prefix)
		if !ok {
			continue
		}
		var addr string
		var p int
		if _, err := fmt.Sscanf(rest, "%s (pid %d)", &addr, &p); err == nil {
			pid = p
		}
	}
	return pid
}

// clusterHosts is the fixed multi-client stream for the fleet e2e tests:
// six named host agents, each registering its collective flow and step.
func clusterHosts(t *testing.T, addr string) (map[string]*analyzerd.ReliableClient, []func() error) {
	t.Helper()
	clients := map[string]*analyzerd.ReliableClient{}
	items := testMessages()
	var sends []func() error
	for i, item := range items {
		host := fmt.Sprintf("h%02d", i%6)
		rc, ok := clients[host]
		if !ok {
			var err error
			rc, err = analyzerd.NewReliableClient(addr, analyzerd.ClientConfig{
				ID: host, MaxAttempts: 40,
				BackoffBase: 20 * time.Millisecond, BackoffMax: 500 * time.Millisecond,
			})
			if err != nil {
				t.Fatalf("client %s: %v", host, err)
			}
			clients[host] = rc
		}
		item := item
		sends = append(sends, func() error { return item(rc) })
	}
	return clients, sends
}

func closeClients(t *testing.T, clients map[string]*analyzerd.ReliableClient) {
	t.Helper()
	for host, rc := range clients {
		if err := rc.Close(); err != nil {
			t.Fatalf("closing client %s: %v", host, err)
		}
	}
}

// TestClusterKillRecoverDiagnosisIdentical is the real-binary half of the
// kill-any-shard contract: run `vedranalyzerd -cluster 2` with durable
// shards, SIGKILL each shard in turn mid-ingest, let the supervisor
// restart it on its WAL, and require the drained output (ingest totals +
// diagnosis) byte-identical to an unbroken cluster run's. The same holds
// for `-cluster 1`, the supervised form of a lone durable daemon.
func TestClusterKillRecoverDiagnosisIdentical(t *testing.T) {
	want := clusterReference(t)

	for _, tc := range []struct {
		name          string
		shards, shard int
	}{
		{"kill-shard-0", 2, 0},
		{"kill-shard-1", 2, 1},
		{"cluster-1-kill-shard-0", 1, 0},
	} {
		shard := tc.shard
		t.Run(tc.name, func(t *testing.T) {
			d, ok := startDaemon(t, "-cluster", fmt.Sprint(tc.shards), "-listen", "127.0.0.1:0",
				"-wal-dir", t.TempDir(), "-fsync", "always", "-snapshot-every", "3")
			if !ok {
				t.Fatal("cluster failed to start")
			}
			clients, sends := clusterHosts(t, d.addr)
			half := len(sends) / 2
			for i := 0; i < half; i++ {
				if err := sends[i](); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
			}
			for _, rc := range clients {
				if err := rc.Flush(); err != nil {
					t.Fatalf("flush before kill: %v", err)
				}
			}

			pid := d.shardPid(shard)
			if pid <= 0 {
				t.Fatalf("shard %d never announced a pid", shard)
			}
			if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
				t.Fatalf("SIGKILL shard %d (pid %d): %v", shard, pid, err)
			}
			deadline := time.Now().Add(30 * time.Second)
			for d.shardPid(shard) == pid {
				if time.Now().After(deadline) {
					t.Fatalf("shard %d never re-announced after SIGKILL", shard)
				}
				time.Sleep(10 * time.Millisecond)
			}

			for i := half; i < len(sends); i++ {
				if err := sends[i](); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
			}
			closeClients(t, clients)
			got := d.terminate(t)
			if !slicesEqual(got, want) {
				t.Fatalf("killed-shard-%d run output differs:\n%s\nvs reference\n%s",
					shard, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		})
	}
}

// clusterReference runs the fixed stream through an unbroken
// `-cluster 2` and returns its drained output (ingest totals + diagnosis).
func clusterReference(t *testing.T) []string {
	t.Helper()
	ref, ok := startDaemon(t, "-cluster", "2", "-listen", "127.0.0.1:0", "-wal-dir", t.TempDir())
	if !ok {
		t.Fatal("reference cluster failed to start")
	}
	clients, sends := clusterHosts(t, ref.addr)
	for i, send := range sends {
		if err := send(); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	closeClients(t, clients)
	want := ref.terminate(t)
	if len(want) == 0 || !strings.HasPrefix(want[0], "ingested: ") {
		t.Fatalf("unexpected reference output: %q", want)
	}
	return want
}

// TestClusterHoldShardExact: with -hold-shard, the held shard is down at
// drain time, so the drain rebuilds it from a WAL with no final snapshot
// — even under -fsync off, since an acked message was flushed to the OS,
// which a SIGKILL does not undo — and the output is byte-identical to an
// unbroken run's.
func TestClusterHoldShardExact(t *testing.T) {
	want := clusterReference(t)
	// Hold the shard that owns h00 so the drain verifiably needs its data.
	ring, err := wire.NewHashRing(wire.ShardMap{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	hold := ring.Owner("h00")

	d, ok := startDaemon(t, "-cluster", "2", "-listen", "127.0.0.1:0",
		"-wal-dir", t.TempDir(), "-fsync", "off", "-hold-shard", fmt.Sprint(hold))
	if !ok {
		t.Fatal("cluster failed to start")
	}
	clients, sends := clusterHosts(t, d.addr)
	for i, send := range sends {
		if err := send(); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	closeClients(t, clients)
	got := d.terminate(t)
	if !slicesEqual(got, want) {
		t.Fatalf("held-shard-%d run output differs:\n%s\nvs reference\n%s",
			hold, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
