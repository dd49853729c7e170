package analyzerd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vedrfolnir/internal/wire"
)

// shardServe starts an in-process fleet shard with the given map/index
// and optional durability dir.
func shardServe(t *testing.T, m wire.ShardMap, index int, dir string) *Server {
	t.Helper()
	cfg := DefaultServerConfig()
	cfg.Shard = &ShardConfig{Map: m, Index: index}
	if dir != "" {
		cfg.Durability = &DurabilityConfig{Dir: dir, Fsync: FsyncAlways, SnapshotEvery: 3}
	}
	srv, err := ServeWith("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("ServeWith: %v", err)
	}
	return srv
}

// ownedAndDisowned finds one client name owned by index and one owned by
// another shard, under m.
func ownedAndDisowned(t *testing.T, m wire.ShardMap, index int) (owned, disowned string) {
	t.Helper()
	ring, err := wire.NewHashRing(m)
	if err != nil {
		t.Fatalf("NewHashRing: %v", err)
	}
	for i := 0; i < 1024 && (owned == "" || disowned == ""); i++ {
		name := fmt.Sprintf("h%03d", i)
		if ring.Owner(name) == index {
			if owned == "" {
				owned = name
			}
		} else if disowned == "" {
			disowned = name
		}
	}
	if owned == "" || disowned == "" {
		t.Fatalf("could not find owned+disowned client names under %+v", m)
	}
	return owned, disowned
}

func testFlow(i int) wire.Flow {
	return wire.Flow{Src: int32(i), Dst: int32(i + 1), SrcPort: 7, DstPort: 8, Proto: 17}
}

// TestShardMovedNackAndErrRedirected covers the ownership fence end to
// end: a shard NACKs a disowned client with moved=true, the
// ReliableClient counts it and surfaces ErrRedirected, and the message
// stays pending (nothing is silently dropped).
func TestShardMovedNackAndErrRedirected(t *testing.T) {
	m := wire.ShardMap{Shards: 2}
	srv := shardServe(t, m, 0, "")
	defer srv.Close()
	owned, disowned := ownedAndDisowned(t, m, 0)

	rc, err := NewReliableClient(srv.Addr(), ClientConfig{ID: disowned, MaxAttempts: 2, Sleep: noSleep})
	if err != nil {
		t.Fatalf("NewReliableClient: %v", err)
	}
	f := testFlow(1)
	if err := rc.SendCF(f.Key()); err != nil {
		t.Fatalf("SendCF: %v", err)
	}
	err = rc.Flush()
	if !errors.Is(err, ErrRedirected) {
		t.Fatalf("Flush error = %v, want ErrRedirected", err)
	}
	if rc.Stats.Redirected != 2 { // one per attempt
		t.Errorf("Stats.Redirected = %d, want 2", rc.Stats.Redirected)
	}
	if rc.Pending() != 1 {
		t.Errorf("Pending = %d, want 1 (moved messages must stay buffered)", rc.Pending())
	}
	if srv.Stats().Moved != 2 {
		t.Errorf("server Moved = %d, want 2", srv.Stats().Moved)
	}

	// The owned client is accepted as usual.
	ok, err := NewReliableClient(srv.Addr(), ClientConfig{ID: owned, MaxAttempts: 2, Sleep: noSleep})
	if err != nil {
		t.Fatalf("NewReliableClient: %v", err)
	}
	if err := ok.SendCF(f.Key()); err != nil {
		t.Fatalf("SendCF: %v", err)
	}
	if err := ok.Flush(); err != nil {
		t.Fatalf("owned client Flush: %v", err)
	}
}

// dumpState drives the dump verb over raw TCP, as the fleet aggregator
// does.
func dumpState(t *testing.T, addr string) *wire.ShardState {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, `{"type":"dump"}`+"\n"); err != nil {
		t.Fatalf("write dump: %v", err)
	}
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		t.Fatalf("read dump reply: %v", err)
	}
	var state wire.ShardState
	if err := json.Unmarshal(line, &state); err != nil {
		t.Fatalf("bad dump reply %q: %v", line, err)
	}
	return &state
}

func TestShardDumpReturnsSourcedMessages(t *testing.T) {
	m := wire.ShardMap{Shards: 2}
	srv := shardServe(t, m, 1, "")
	defer srv.Close()
	owned, _ := ownedAndDisowned(t, m, 1)

	rc, err := NewReliableClient(srv.Addr(), ClientConfig{ID: owned, MaxAttempts: 2, Sleep: noSleep})
	if err != nil {
		t.Fatalf("NewReliableClient: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := rc.SendCF(testFlow(i).Key()); err != nil {
			t.Fatalf("SendCF: %v", err)
		}
	}
	if err := rc.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	state := dumpState(t, srv.Addr())
	if state.Shard != 1 || state.Map != m {
		t.Errorf("dump identifies as shard %d of %+v, want 1 of %+v", state.Shard, state.Map, m)
	}
	if len(state.Messages) != 3 {
		t.Fatalf("dump has %d messages, want 3", len(state.Messages))
	}
	for i, sm := range state.Messages {
		if sm.Client != owned || sm.Seq != int64(i+1) || sm.Type != TypeCF {
			t.Errorf("message %d = %+v, want client %q seq %d cf", i, sm, owned, i+1)
		}
	}
}

func TestDumpOnStandaloneServerErrors(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, `{"type":"dump"}`+"\n"); err != nil {
		t.Fatalf("write: %v", err)
	}
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	var rep struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(line, &rep); err != nil || rep.Error == "" {
		t.Fatalf("want an error reply, got %q (%v)", line, err)
	}
}

// TestShardRecoveryDropsReassignedClients is the shard-map-change
// recovery contract: a restarted shard whose map now assigns some
// recovered clients elsewhere must drop their records — from the
// snapshot AND the WAL tail — deterministically and with a counter,
// never replay them into the wrong shard.
func TestShardRecoveryDropsReassignedClients(t *testing.T) {
	dir := t.TempDir()
	wide := wire.ShardMap{Shards: 1} // owns every client
	narrow := wire.ShardMap{Shards: 2}
	keep, lose := ownedAndDisowned(t, narrow, 0)

	srv := shardServe(t, wide, 0, dir)
	// 4 messages per client with SnapshotEvery=3: some land in the
	// snapshot, the rest stay in the WAL tail, so both recovery filters
	// are exercised.
	perClient := 4
	for _, id := range []string{keep, lose} {
		rc, err := NewReliableClient(srv.Addr(), ClientConfig{ID: id, MaxAttempts: 2, Sleep: noSleep})
		if err != nil {
			t.Fatalf("NewReliableClient: %v", err)
		}
		for i := 0; i < perClient; i++ {
			if err := rc.SendCF(testFlow(i).Key()); err != nil {
				t.Fatalf("SendCF: %v", err)
			}
		}
		if err := rc.Flush(); err != nil {
			t.Fatalf("Flush(%s): %v", id, err)
		}
	}
	srv.Abort() // SIGKILL stand-in: no drain snapshot, WAL abandoned

	recoverOnce := func() (RecoverStats, *wire.ShardState) {
		cfg := DefaultServerConfig()
		cfg.Shard = &ShardConfig{Map: narrow, Index: 0}
		cfg.Durability = &DurabilityConfig{Dir: dir, Fsync: FsyncAlways, SnapshotEvery: 0}
		s2, err := ServeWith("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatalf("recover ServeWith: %v", err)
		}
		stats := s2.Recovery()
		state := s2.ShardState()
		if err := s2.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		return stats, state
	}

	stats, state := recoverOnce()
	if stats.Reassigned != perClient {
		t.Errorf("Reassigned = %d, want %d (all of %s's messages)", stats.Reassigned, perClient, lose)
	}
	if len(state.Messages) != perClient {
		t.Fatalf("recovered %d messages, want %d (only %s's)", len(state.Messages), perClient, keep)
	}
	for _, sm := range state.Messages {
		if sm.Client != keep {
			t.Errorf("recovered message for %q survived reassignment", sm.Client)
		}
	}

	// Recovery of the same directory is deterministic: run it again
	// (read-only with SnapshotEvery=0 and no new ingest) and compare.
	stats2, state2 := recoverOnce()
	if stats2.Reassigned != stats.Reassigned {
		t.Errorf("second recovery Reassigned = %d, want %d", stats2.Reassigned, stats.Reassigned)
	}
	if !reflect.DeepEqual(state2, state) {
		t.Errorf("second recovery state differs:\n%+v\n%+v", state2, state)
	}
}

// TestShardSnapshotRoundTrip pins the one snapshot form for both ways of
// starting a server: after a graceful drain the WAL is empty, the
// snapshot alone carries the stream, and a restart rebuilds the same
// sourced state and a byte-identical diagnosis.
func TestShardSnapshotRoundTrip(t *testing.T) {
	items := linearize(runScenario(t))
	m := wire.ShardMap{Shards: 2}
	owned, _ := ownedAndDisowned(t, m, 0)
	for name, shard := range map[string]*ShardConfig{
		"standalone":   nil,
		"fleet-member": {Map: m, Index: 0},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := DefaultServerConfig()
			cfg.Shard = shard
			cfg.Durability = &DurabilityConfig{Dir: dir, Fsync: FsyncAlways, SnapshotEvery: 3}
			srv, err := ServeWith("127.0.0.1:0", cfg)
			if err != nil {
				t.Fatalf("ServeWith: %v", err)
			}
			rc, err := NewReliableClient(srv.Addr(), ClientConfig{ID: owned, MaxAttempts: 2, Sleep: noSleep})
			if err != nil {
				t.Fatalf("NewReliableClient: %v", err)
			}
			sendRange(t, rc, items, 0, len(items))
			if err := rc.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			want, wantDiag := srv.ShardState(), diagBytes(t, srv)
			if err := srv.Drain(); err != nil {
				t.Fatalf("Drain: %v", err)
			}
			if fi, err := os.Stat(filepath.Join(dir, walFileName)); err != nil || fi.Size() != 0 {
				t.Fatalf("WAL after drain: %v, %v; want an empty log", fi, err)
			}

			s2, err := ServeWith("127.0.0.1:0", cfg)
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			defer s2.Close()
			if got := s2.ShardState(); !reflect.DeepEqual(got, want) {
				t.Errorf("restarted state differs:\n got %+v\nwant %+v", got, want)
			}
			if got := diagBytes(t, s2); !bytes.Equal(got, wantDiag) {
				t.Errorf("post-drain diagnosis differs:\n%s\nvs\n%s", got, wantDiag)
			}
			if rec := s2.Recovery(); !rec.SnapshotLoaded || rec.SnapshotMessages != len(items) || rec.WALEntries != 0 {
				t.Errorf("recovery %+v, want all %d messages from the snapshot alone", rec, len(items))
			}
		})
	}
}

// TestDiagnoseIsTheSharedFold pins the one diagnosis path: a server folds
// its stream in ingest order through wire.FoldMessages, and the result is
// byte-identical to what the pre-fold daemon computed — a bundle of the
// same records and reports in ingest order plus the flow set — for a
// server started either way.
func TestDiagnoseIsTheSharedFold(t *testing.T) {
	res := runScenario(t)
	items := linearize(res)
	want, err := json.Marshal(wire.FromDiagnosis(wire.NewBundle(res.Records, res.Reports, res.CFs).Analyze()))
	if err != nil {
		t.Fatal(err)
	}
	m := wire.ShardMap{Shards: 2}
	owned, _ := ownedAndDisowned(t, m, 1)
	for name, shard := range map[string]*ShardConfig{
		"standalone":   nil,
		"fleet-member": {Map: m, Index: 1},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultServerConfig()
			cfg.Shard = shard
			srv, err := ServeWith("127.0.0.1:0", cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			rc, err := NewReliableClient(srv.Addr(), ClientConfig{ID: owned, Sleep: noSleep})
			if err != nil {
				t.Fatal(err)
			}
			sendRange(t, rc, items, 0, len(items))
			if err := rc.Close(); err != nil {
				t.Fatal(err)
			}
			if got := diagBytes(t, srv); !bytes.Equal(got, want) {
				t.Errorf("Diagnose differs from Bundle.Analyze over the same stream:\n%s\nvs\n%s", got, want)
			}
			bundle, stats := wire.FoldMessages(srv.ShardState().Messages)
			r, p, c := srv.Counts()
			if r != stats.Records || p != stats.Reports || c != stats.CFs ||
				r != len(res.Records) || p != len(res.Reports) || c != len(res.CFs) || len(bundle.Records) != r {
				t.Errorf("Counts %d/%d/%d, fold %+v, scenario %d/%d/%d", r, p, c, stats,
					len(res.Records), len(res.Reports), len(res.CFs))
			}
		})
	}
}
