package fleet

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"testing"

	"vedrfolnir/internal/analyzerd"
	"vedrfolnir/internal/wire"
)

// TestFleetDrainReapsShards: Drain reaps every shard before it merges —
// once it returns, every shard's supervision has ended (Proc.Wait has
// returned) — and rebuilds each from its directory, on a clean drain and
// on one with a shard held down, which exits without a final snapshot.
// Router.DumpShard, shard by shard after Stop, takes the same path.
func TestFleetDrainReapsShards(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "vedranalyzerd")
	if out, err := exec.Command("go", "build", "-o", bin, "vedrfolnir/cmd/vedranalyzerd").CombinedOutput(); err != nil {
		t.Fatalf("building the daemon: %v\n%s", err, out)
	}
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
