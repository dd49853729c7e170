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
	"strings"
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

// TestShardDrainRecoversSourcedMessages: what a fleet drain reads of a
// shard — its directory after a graceful stop, through RecoverShard —
// holds the shard's accepted messages with their provenance, under the
// shard's position in the fleet.
func TestShardDrainRecoversSourcedMessages(t *testing.T) {
	m := wire.ShardMap{Shards: 2}
	dir := t.TempDir()
	srv := shardServe(t, m, 1, dir)
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
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	state, st, err := RecoverShard(dir, ShardConfig{Map: m, Index: 1})
	if err != nil {
		t.Fatalf("RecoverShard: %v", err)
	}
	if st.Reassigned != 0 || st.Unreplayable != 0 || st.WALEntries != 0 {
		t.Errorf("recovery %+v, want the periodic snapshot at message 3 (SnapshotEvery 3) alone and nothing dropped", st)
	}
	if state.Shard != 1 || state.Map != m {
		t.Errorf("state identifies as shard %d of %+v, want 1 of %+v", state.Shard, state.Map, m)
	}
	if len(state.Messages) != 3 {
		t.Fatalf("state has %d messages, want 3", len(state.Messages))
	}
	for i, sm := range state.Messages {
		if sm.Client != owned || sm.Seq != int64(i+1) || sm.Type != TypeCF {
			t.Errorf("message %d = %+v, want client %q seq %d cf", i, sm, owned, i+1)
		}
	}
	if want := []wire.ClientAck{{Client: owned, Seq: 3}}; !reflect.DeepEqual(state.Acked, want) {
		t.Errorf("acked = %+v, want %+v", state.Acked, want)
	}
}

// adminLine sends one raw line on a fresh connection and decodes the
// JSON reply.
func adminLine(t *testing.T, addr, line string) map[string]any {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "%s\n", line); err != nil {
		t.Fatalf("write %q: %v", line, err)
	}
	reply, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		t.Fatalf("read reply to %q: %v", line, err)
	}
	var m map[string]any
	if err := json.Unmarshal(reply, &m); err != nil {
		t.Fatalf("bad reply %q: %v", reply, err)
	}
	return m
}

func wantErrContaining(t *testing.T, reply map[string]any, sub string) {
	t.Helper()
	e, _ := reply["error"].(string)
	if e == "" || !strings.Contains(e, sub) {
		t.Errorf("reply = %v, want error containing %q", reply, sub)
	}
}

// TestAdminVerbsRefusedOutsideFleet: there is no admin verb, inside a
// fleet or out. The dump verb (a fleet drain now reads a shard's
// directory) and the rebalance verbs older builds spoke — remap, adopt,
// resize — are unknown types: ParseMessage refuses them, and a shard
// answers with that error instead of ignoring them.
func TestAdminVerbsRefusedOutsideFleet(t *testing.T) {
	shard := shardServe(t, wire.ShardMap{Shards: 2}, 0, "")
	defer shard.Close()
	for _, tc := range []struct{ line, want string }{
		{`{"type":"dump"}`, `unknown message type "dump"`},
		{`{"type":"remap","map":{"shards":3,"epoch":2}}`, `unknown message type "remap"`},
		{`{"type":"adopt","handoff":{"format":2,"map":{"shards":2},"from":1,"to":0}}`, `unknown message type "adopt"`},
		{`{"type":"resize","map":{"shards":3}}`, `unknown message type "resize"`},
	} {
		if _, err := ParseMessage([]byte(tc.line)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseMessage(%s) = %v, want an error containing %q", tc.line, err, tc.want)
		}
		wantErrContaining(t, adminLine(t, shard.Addr(), tc.line), tc.want)
	}
	if st := shard.Stats(); st.Malformed != 4 {
		t.Errorf("Malformed = %d, want 4 (one per refused verb)", st.Malformed)
	}
}

// TestDumpOnStandaloneServerErrors: a lone daemon refuses the dump line
// as the shard does, as an unknown type, on a connection that stays
// usable.
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
	if err := json.Unmarshal(line, &rep); err != nil || rep.Error != `unknown message type "dump"` {
		t.Fatalf("want the unknown-type error reply, got %q (%v)", line, err)
	}
	if st := srv.Stats(); st.Malformed != 1 {
		t.Errorf("Malformed = %d, want 1", st.Malformed)
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
	srv.Abort() // SIGKILL stand-in: no final sync, WAL abandoned

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

	// The daemon's startup loads what the offline replay rebuilds.
	offline, offStats, err := RecoverShard(dir, ShardConfig{Map: narrow, Index: 0})
	if err != nil {
		t.Fatalf("RecoverShard: %v", err)
	}
	stats, state := recoverOnce()
	if offStats != stats || !reflect.DeepEqual(offline, state) {
		t.Errorf("offline recovery differs from the daemon's:\n%+v %+v\n%+v %+v", offStats, offline, stats, state)
	}
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

// TestRecoverShardDropsPayloadlessSnapshotMessages: a snapshot message
// without its payload (a different or corrupt writer's) is dropped and
// counted; the rest of the snapshot replays.
func TestRecoverShardDropsPayloadlessSnapshotMessages(t *testing.T) {
	dir := t.TempDir()
	cf := testFlow(0)
	snap := wire.Snapshot{Format: wire.SnapshotFormat, NextLSN: 1,
		Messages: []wire.SourcedMessage{
			{Client: "a", Seq: 1, Type: TypeCF, CF: &cf},
			{Client: "a", Seq: 2, Type: TypeCF},
		},
		Acked: []wire.ClientAck{{Client: "a", Seq: 2}},
	}
	if err := writeSnapshot(dir, append(wire.AppendSnapshot(nil, &snap), '\n')); err != nil {
		t.Fatal(err)
	}
	state, stats, err := RecoverShard(dir, ShardConfig{Map: wire.ShardMap{Shards: 1}})
	if err != nil {
		t.Fatalf("RecoverShard: %v", err)
	}
	if stats.Unreplayable != 1 || len(state.Messages) != 1 || state.Messages[0].Seq != 1 {
		t.Errorf("Unreplayable = %d, kept %+v; want 1 dropped and seq 1 kept", stats.Unreplayable, state.Messages)
	}
}

// TestShardSnapshotRoundTrip pins the one snapshot form for both ways of
// starting a server: when the stream ends on a periodic snapshot
// (SnapshotEvery 3 divides its length) the WAL a graceful stop leaves is
// empty, the snapshot alone carries the stream, and a restart rebuilds the
// same sourced state and a byte-identical diagnosis. A stream that ends
// between snapshots is TestCloseWritesNoSnapshot's.
func TestShardSnapshotRoundTrip(t *testing.T) {
	items := linearize(runScenario(t))
	if len(items)%3 != 0 {
		t.Fatalf("%d messages: the stream must end on a periodic snapshot (every 3)", len(items))
	}
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
			if err := srv.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if fi, err := os.Stat(filepath.Join(dir, walFileName)); err != nil || fi.Size() != 0 {
				t.Fatalf("WAL after the last periodic snapshot: %v, %v; want an empty log", fi, err)
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
				t.Errorf("post-stop diagnosis differs:\n%s\nvs\n%s", got, wantDiag)
			}
			if rec := s2.Recovery(); !rec.SnapshotLoaded || rec.SnapshotMessages != len(items) || rec.WALEntries != 0 {
				t.Errorf("recovery %+v, want all %d messages from the snapshot alone", rec, len(items))
			}
		})
	}
}

// TestCloseWritesNoSnapshot pins what a graceful stop leaves: Close syncs
// the WAL and writes no snapshot, so the directory is the last periodic
// snapshot plus the WAL tail — what a crash leaves — once with a stream
// that ends between snapshots and once with SnapshotEvery 0, where the WAL
// is the whole state. RecoverShard rebuilds the live state from it, and a
// restart diagnoses byte-identically.
func TestCloseWritesNoSnapshot(t *testing.T) {
	items := linearize(runScenario(t))
	const periodic = 10
	if len(items)%periodic == 0 {
		t.Fatalf("%d messages: the stream must end between snapshots (every %d)", len(items), periodic)
	}
	shard := ShardConfig{Map: wire.ShardMap{Shards: 1}}
	for name, every := range map[string]int{"periodic": periodic, "never": 0} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := DefaultServerConfig()
			cfg.Shard = &shard
			cfg.Durability = &DurabilityConfig{Dir: dir, Fsync: FsyncOff, SnapshotEvery: every}
			srv, err := ServeWith("127.0.0.1:0", cfg)
			if err != nil {
				t.Fatalf("ServeWith: %v", err)
			}
			defer srv.Close()
			rc, err := NewReliableClient(srv.Addr(), ClientConfig{ID: "h1", MaxAttempts: 2, Sleep: noSleep})
			if err != nil {
				t.Fatalf("NewReliableClient: %v", err)
			}
			sendRange(t, rc, items, 0, len(items))
			if err := rc.Close(); err != nil {
				t.Fatalf("client Close: %v", err)
			}
			want, wantDiag := srv.ShardState(), diagBytes(t, srv)
			if err := srv.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			snaps := 0
			if every > 0 {
				snaps = len(items) / every
			}
			snap, ok, err := readSnapshot(dir)
			if err != nil {
				t.Fatalf("readSnapshot: %v", err)
			}
			if n := srv.snapshots.Load(); n != int64(snaps) || ok != (snaps > 0) || len(snap.Messages) != snaps*every {
				t.Errorf("%d snapshots written, the last (present: %v) holding %d messages; want only the %d periodic ones, the last holding %d",
					n, ok, len(snap.Messages), snaps, snaps*every)
			}
			got, st, err := RecoverShard(dir, shard)
			if err != nil {
				t.Fatalf("RecoverShard: %v", err)
			}
			if st.WALEntries != len(items)-snaps*every {
				t.Errorf("replayed %d WAL entries, want the %d after the last periodic snapshot", st.WALEntries, len(items)-snaps*every)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("RecoverShard differs from the live state:\n got %+v\nwant %+v", got, want)
			}

			s2, err := ServeWith("127.0.0.1:0", cfg)
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			defer s2.Close()
			if got := diagBytes(t, s2); !bytes.Equal(got, wantDiag) {
				t.Errorf("post-stop diagnosis differs:\n%s\nvs\n%s", got, wantDiag)
			}
		})
	}
}

// TestRealStreamEncodesAsMarshal: on a real scenario's stream, from two
// clients (one named with quotes, HTML bytes, U+2028 and non-ASCII text),
// every byte the hand-written encoders write is json.Marshal's: each
// client line and the periodic snapshot the last message triggers.
func TestRealStreamEncodesAsMarshal(t *testing.T) {
	items := linearize(runScenario(t))
	dir := t.TempDir()
	cfg := DefaultServerConfig()
	cfg.Shard = &ShardConfig{Map: wire.ShardMap{Shards: 1}}
	cfg.Durability = &DurabilityConfig{Dir: dir, Fsync: FsyncOff, SnapshotEvery: 2 * len(items)}
	srv, err := ServeWith("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("ServeWith: %v", err)
	}
	defer srv.Close()
	marshalled := func(v any) []byte {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	for _, id := range []string{"h01", "h\"<é>&\u2028"} {
		rc, err := NewReliableClient(srv.Addr(), ClientConfig{ID: id, MaxAttempts: 2, Sleep: noSleep, MaxPending: -1})
		if err != nil {
			t.Fatal(err)
		}
		sendRange(t, rc, items, 0, len(items))
		for _, p := range rc.pending {
			msg, err := ParseMessage(p.line)
			if err != nil {
				t.Fatalf("client line %q: %v", p.line, err)
			}
			if want := marshalled(msg); !bytes.Equal(p.line, want) {
				t.Fatalf("client line differs:\n got %s\nwant %s", p.line, want)
			}
		}
		if err := rc.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil { // the applier has written the snapshot
		t.Fatal(err)
	}
	file, err := os.ReadFile(filepath.Join(dir, snapshotFileName))
	if err != nil {
		t.Fatal(err)
	}
	snap, ok, err := readSnapshot(dir)
	if err != nil || !ok || len(snap.Messages) != 2*len(items) || !bytes.Equal(file, marshalled(snap)) {
		t.Fatalf("snapshot of %d bytes differs from json.Marshal's (ok=%v, err=%v)", len(file), ok, err)
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
