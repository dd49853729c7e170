package analyzerd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vedrfolnir/internal/chaos"
	"vedrfolnir/internal/scenario"
	"vedrfolnir/internal/wire"
)

// sendFn defers one submission so tests can cut the stream anywhere.
type sendFn func(rc *ReliableClient) error

// linearize flattens a scenario run into one deterministic submission
// order: records, then reports, then the collective-flow census sorted.
func linearize(res scenario.Result) []sendFn {
	var items []sendFn
	for _, rec := range res.Records {
		rec := rec
		items = append(items, func(rc *ReliableClient) error { return rc.SendStep(rec) })
	}
	for _, rep := range res.Reports {
		rep := rep
		items = append(items, func(rc *ReliableClient) error { return rc.SendReport(rep) })
	}
	for _, cf := range wire.NewBundle(nil, nil, res.CFs).CFs { // the flow set, in wire.SortFlows order
		cf := cf.Key()
		items = append(items, func(rc *ReliableClient) error { return rc.SendCF(cf) })
	}
	return items
}

func diagBytes(t *testing.T, s *Server) []byte {
	t.Helper()
	b, err := json.Marshal(wire.FromDiagnosis(s.Diagnose()))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func runScenario(t *testing.T) scenario.Result {
	t.Helper()
	cfg := testConfig()
	cs, err := scenario.GenerateCase(scenario.Contention, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(cs, scenario.Vedrfolnir, cfg, scenario.DefaultRunOptions(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 || len(res.Reports) == 0 || len(res.CFs) == 0 {
		t.Fatal("setup: scenario produced no inputs")
	}
	return res
}

func noSleep(time.Duration) {}

func sendRange(t *testing.T, rc *ReliableClient, items []sendFn, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := items[i](rc); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
}

// TestCrashRecoveryDiagnoseIdentical is the tentpole property: SIGKILL
// the durable analyzer at seeded cut points mid-ingest, restart it on the
// same directory, finish the stream through the same reliable client, and
// the recovered daemon's diagnosis must be byte-identical to a run that
// never crashed — with zero lost and zero duplicated messages. (The
// graceful-stop half is TestCloseWritesNoSnapshot.)
func TestCrashRecoveryDiagnoseIdentical(t *testing.T) {
	res := runScenario(t)
	items := linearize(res)

	// Reference: same stream, no durability, no crash.
	ref, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rcRef, err := NewReliableClient(ref.Addr(), ClientConfig{ID: "h1", Sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	sendRange(t, rcRef, items, 0, len(items))
	if err := rcRef.Close(); err != nil {
		t.Fatal(err)
	}
	wantDiag := diagBytes(t, ref)
	wantRecs, wantReps, wantCFs := ref.Counts()
	ref.Close()

	faults := chaos.NewWALFaults(42)
	for _, cut := range faults.CrashPoints(3, len(items)-1) {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			dur := &DurabilityConfig{Dir: dir, Fsync: FsyncAlways, SnapshotEvery: 5}
			cfg := DefaultServerConfig()
			cfg.Durability = dur
			srv1, err := ServeWith("127.0.0.1:0", cfg)
			if err != nil {
				t.Fatal(err)
			}
			rc, err := NewReliableClient(srv1.Addr(), ClientConfig{ID: "h1", Sleep: noSleep})
			if err != nil {
				t.Fatal(err)
			}
			sendRange(t, rc, items, 0, cut)
			if err := rc.Flush(); err != nil {
				t.Fatal(err)
			}
			srv1.Abort()

			srv2, err := ServeWith("127.0.0.1:0", cfg)
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			defer srv2.Close()
			// Everything acked before the kill must already be there.
			if r, p, c := srv2.Counts(); r+p+c < cut {
				t.Fatalf("recovered %d messages, want at least %d (%+v)", r+p+c, cut, srv2.Recovery())
			}
			// Same client, new address: the seq counter must survive so
			// the server's highwater keeps deduplicating.
			rc.addr = srv2.Addr()
			rc.dropConn()
			sendRange(t, rc, items, cut, len(items))
			if err := rc.Close(); err != nil {
				t.Fatal(err)
			}

			if r, p, c := srv2.Counts(); r != wantRecs || p != wantReps || c != wantCFs {
				t.Fatalf("recovered counts %d/%d/%d, want %d/%d/%d (lost or duplicated messages)",
					r, p, c, wantRecs, wantReps, wantCFs)
			}
			if got := diagBytes(t, srv2); !bytes.Equal(got, wantDiag) {
				t.Fatalf("recovered diagnosis differs from uninterrupted run:\n%s\nvs\n%s", got, wantDiag)
			}
		})
	}
}

// TestRecoverSuppressesResubmission: a client that never saw its ack
// resubmits after the restart; the recovered highwater must suppress the
// duplicate rather than ingest it twice.
func TestRecoverSuppressesResubmission(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultServerConfig()
	cfg.Durability = &DurabilityConfig{Dir: dir, Fsync: FsyncAlways}
	srv1, err := ServeWith("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sendLine(t, conn, `{"type":"cf","cf":{"src":1,"dst":2},"seq":1,"client":"h1"}`)
	expectReply(t, conn, `{"ack":1,"client":"h1"}`)
	conn.Close()
	srv1.Abort()

	srv2, err := ServeWith("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	conn2, err := net.Dial("tcp", srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	sendLine(t, conn2, `{"type":"cf","cf":{"src":1,"dst":2},"seq":1,"client":"h1"}`)
	expectReply(t, conn2, `{"ack":1,"client":"h1"}`)
	if _, _, cfs := srv2.Counts(); cfs != 1 {
		t.Fatalf("resubmission re-ingested: %d cfs", cfs)
	}
	if d := srv2.Stats().Duplicates; d != 1 {
		t.Fatalf("Duplicates = %d, want 1", d)
	}
}

// TestRecoverTornWALTail: debris appended to the log (a torn crash write)
// must cost only a counted warning, never a failed startup.
func TestRecoverTornWALTail(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 1, FsyncAlways, 0, fixedNow)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		line, err := json.Marshal(Message{Type: TypeCF, CF: &wire.Flow{Src: int32(i), Dst: 9}, Seq: int64(i + 1), Client: "h1"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append(line); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, walFileName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cfg := DefaultServerConfig()
	cfg.Durability = &DurabilityConfig{Dir: dir, Fsync: FsyncAlways}
	srv, err := ServeWith("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("torn tail broke startup: %v", err)
	}
	defer srv.Close()
	rec := srv.Recovery()
	if rec.WALEntries != 4 || rec.WALTruncatedBytes != 3 || !rec.WALTornTail {
		t.Fatalf("recovery stats %+v, want 4 entries and a 3-byte torn tail", rec)
	}
	if _, _, cfs := srv.Counts(); cfs != 4 {
		t.Fatalf("recovered %d cfs, want 4", cfs)
	}
}

// TestRecoverRefusesUnsequencedWALEntry: an entry an older build logged
// without a client seq breaks the ingest contract, so recovery counts it
// malformed and skips it; the entries around it replay intact.
func TestRecoverRefusesUnsequencedWALEntry(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 1, FsyncAlways, 0, fixedNow)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`{"type":"cf","cf":{"src":1,"dst":9},"seq":1,"client":"h1"}`,
		`{"type":"cf","cf":{"src":2,"dst":9},"seq":2,"client":"h1"}`,
		`{"type":"cf","cf":{"src":3,"dst":9}}`,
		`{"type":"cf","cf":{"src":4,"dst":9},"seq":3,"client":"h1"}`,
	} {
		if _, err := w.Append([]byte(line)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := DefaultServerConfig()
	cfg.Durability = &DurabilityConfig{Dir: dir, Fsync: FsyncAlways}
	srv, err := ServeWith("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if rec := srv.Recovery(); rec.WALEntries != 4 || rec.WALMalformed != 1 || rec.WALTruncatedBytes != 0 {
		t.Fatalf("recovery stats %+v, want 4 entries with 1 malformed", rec)
	}
	state := srv.ShardState()
	if len(state.Messages) != 3 || len(state.Acked) != 1 || state.Acked[0] != (wire.ClientAck{Client: "h1", Seq: 3}) {
		t.Fatalf("recovered %d messages, acked %+v; want 3 messages and h1 acked through 3", len(state.Messages), state.Acked)
	}
	for i, m := range state.Messages {
		if m.Seq != int64(i+1) || m.CF == nil || m.CF.Src == 3 {
			t.Fatalf("recovered message %d = %+v, want h1's seq %d", i, m, i+1)
		}
	}
}

func TestRecoverEmptyDir(t *testing.T) {
	rs, err := Recover(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Stats.SnapshotLoaded || len(rs.Messages) != 0 || rs.Stats.NextLSN != 0 {
		t.Fatalf("empty dir recovered %+v", rs.Stats)
	}
}
