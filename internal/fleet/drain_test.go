package fleet

import (
	"fmt"
	"net"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"vedrfolnir/internal/analyzerd"
	"vedrfolnir/internal/wire"
)

// TestFleetDrainReapsShards: Drain reaps every shard before it merges —
// once it returns, every shard's supervision has ended (Proc.Wait has
// returned) — and rebuilds each from its directory, on a clean drain and
// on one with a shard held down, which dies without syncing its WAL.
// Router.DumpShard, shard by shard after Stop, takes the same path.
func TestFleetDrainReapsShards(t *testing.T) {
	bin := buildDaemon(t)
	for _, tc := range []struct {
		name     string
		hold     int
		dumpEach bool
	}{{"clean", -1, false}, {"hold-shard-1", 1, false}, {"dump-shard", -1, true}} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := Start(Config{BinPath: bin, Shards: 2, Dir: t.TempDir(), Fsync: "off", HoldShard: tc.hold})
			if err != nil {
				t.Fatalf("Start: %v", err)
			}
			defer f.Close()
			ring, err := wire.NewHashRing(wire.ShardMap{Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			owners := map[int]bool{}
			for i := 0; len(owners) < 2; i++ {
				host := fmt.Sprintf("h%02d", i)
				if owners[ring.Owner(host)] {
					continue
				}
				owners[ring.Owner(host)] = true
				rc, err := analyzerd.NewReliableClient(f.Addr(), analyzerd.ClientConfig{ID: host})
				if err != nil {
					t.Fatal(err)
				}
				if err := rc.SendCF(hostFlow(i)); err != nil {
					t.Fatal(err)
				}
				if err := rc.Close(); err != nil {
					t.Fatalf("client %s: %v", host, err)
				}
			}
			var cfs int
			if tc.dumpEach {
				f.Router().Stop()
				var states []*wire.ShardState
				for i := range f.procs {
					st, err := f.Router().DumpShard(i)
					if err != nil {
						t.Fatalf("DumpShard(%d): %v", i, err)
					}
					states = append(states, st)
				}
				_, stats := wire.MergeShardStates(states)
				cfs = stats.CFs
			} else {
				merged, err := f.Drain(nil)
				if err != nil {
					t.Fatalf("Drain: %v", err)
				}
				cfs = merged.Stats.CFs
			}
			if cfs != 2 {
				t.Errorf("drain kept %d flows, want 2, holding %d", cfs, tc.hold)
			}
			for i, p := range f.procs {
				select {
				case <-p.done:
				default:
					t.Errorf("shard %d is still supervised after Drain returned", i)
				}
			}
		})
	}
}

// buildDaemon builds vedranalyzerd, the binary a fleet's shards run.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "vedranalyzerd")
	if out, err := exec.Command("go", "build", "-o", bin, "vedrfolnir/cmd/vedranalyzerd").CombinedOutput(); err != nil {
		t.Fatalf("building the daemon: %v\n%s", err, out)
	}
	return bin
}

// TestFleetPlacesOnRouterHost: a fleet whose router listens on 127.0.0.2
// binds its shards there too, and places clients on 127.0.0.2:<port>,
// where they are acked. Shards bound on 127.0.0.1 would refuse them.
func TestFleetPlacesOnRouterHost(t *testing.T) {
	probe, err := net.Listen("tcp", "127.0.0.2:0")
	if err != nil {
		t.Skipf("no second loopback address here: %v", err)
	}
	_ = probe.Close()
	f, err := Start(Config{BinPath: buildDaemon(t), Shards: 2, Dir: t.TempDir(), Fsync: "off", Listen: "127.0.0.2:0", HoldShard: -1})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer f.Close()
	ring, err := wire.NewHashRing(wire.ShardMap{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	owners := map[int]bool{}
	for i := 0; len(owners) < 2; i++ {
		host := fmt.Sprintf("h%02d", i)
		owner := ring.Owner(host)
		if owners[owner] {
			continue
		}
		owners[owner] = true
		c := dialRaw(t, f.Addr(), host)
		c.send(t, 1)
		rep := c.recv(t, 1)[0]
		if h, _, err := net.SplitHostPort(rep.Addr); err != nil || h != "127.0.0.2" || !isPlacement(rep, host, 1, owner, rep.Addr) {
			t.Errorf("%s placed by %+v, want a placement on 127.0.0.2", host, rep)
		}
		rc, err := analyzerd.NewReliableClient(f.Addr(), analyzerd.ClientConfig{ID: host, MaxAttempts: 2, BackoffBase: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if err := rc.SendCF(hostFlow(i)); err != nil {
			t.Fatal(err)
		}
		if err := rc.Close(); err != nil {
			t.Fatalf("client %s placed on shard %d: %v", host, owner, err)
		}
		if rc.Stats.Placed != 1 {
			t.Errorf("client %s: stats %+v, want one placement", host, rc.Stats)
		}
	}
	merged, err := f.Drain(nil)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if merged.Stats.CFs != 2 {
		t.Errorf("drain kept %d flows, want 2", merged.Stats.CFs)
	}
}
