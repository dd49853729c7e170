package fleet

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"testing"

	"vedrfolnir/internal/analyzerd"
	"vedrfolnir/internal/wire"
)

// TestFleetDrainReapsShards: Drain signals the shards to exit before it
// merges, so the reap is the last thing it does — once it returns, every
// shard's supervision has ended (Proc.Wait has returned), on a clean drain
// and on one with a shard held down, whose flow the drain recovers from
// the shard's WAL.
func TestFleetDrainReapsShards(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "vedranalyzerd")
	if out, err := exec.Command("go", "build", "-o", bin, "vedrfolnir/cmd/vedranalyzerd").CombinedOutput(); err != nil {
		t.Fatalf("building the daemon: %v\n%s", err, out)
	}
	for name, hold := range map[string]int{"clean": -1, "hold-shard-1": 1} {
		t.Run(name, func(t *testing.T) {
			f, err := Start(Config{BinPath: bin, Shards: 2, Dir: t.TempDir(), Fsync: "off", HoldShard: hold})
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
			merged, err := f.Drain(nil)
			if err != nil {
				t.Fatalf("Drain: %v", err)
			}
			if merged.Stats.CFs != 2 {
				t.Errorf("drain kept %d flows, want 2, holding %d", merged.Stats.CFs, hold)
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
