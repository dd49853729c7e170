package analyzerd

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"vedrfolnir/internal/wire"
)

func fixedNow() time.Time { return time.Unix(1000, 0) }

func walPayload(i byte) []byte {
	return []byte(`{"type":"cf","cf":{"src":` + string('0'+i) + `,"dst":9}}`)
}

// writeTestWAL creates a WAL with n entries (LSNs starting at firstLSN)
// and returns its raw bytes plus the start offset of every entry.
func writeTestWAL(t *testing.T, dir string, firstLSN uint64, n int) (data []byte, starts []int) {
	t.Helper()
	w, err := openWAL(dir, firstLSN, FsyncOff, 0, fixedNow)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := w.Append(walPayload(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	rest := data
	for len(rest) > 0 {
		starts = append(starts, len(data)-len(rest))
		_, _, next, err := decodeWALEntry(rest)
		if err != nil {
			t.Fatalf("freshly written WAL does not decode: %v", err)
		}
		rest = next
	}
	if len(starts) != n {
		t.Fatalf("wrote %d entries, decoded %d", n, len(starts))
	}
	return data, starts
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	writeTestWAL(t, dir, 1, 5)
	var got [][]byte
	var lsns []uint64
	st, err := replayWAL(dir, 0, func(lsn uint64, payload []byte) error {
		lsns = append(lsns, lsn)
		got = append(got, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.WALEntries != 5 || st.WALTruncatedBytes != 0 || st.WALSkipped != 0 {
		t.Fatalf("replay stats: %+v", st)
	}
	if st.NextLSN != 6 {
		t.Fatalf("NextLSN = %d, want 6", st.NextLSN)
	}
	for i := range got {
		if lsns[i] != uint64(i+1) {
			t.Fatalf("entry %d has lsn %d", i, lsns[i])
		}
		if !bytes.Equal(got[i], walPayload(byte(i))) {
			t.Fatalf("entry %d payload %q", i, got[i])
		}
	}
}

// TestWALTornTailEveryOffset shears the log at every byte offset of the
// file and checks that replay recovers exactly the entries before the
// cut, truncates the debris, and leaves a log that accepts appends again
// — the crash can land anywhere, recovery must never fail.
func TestWALTornTailEveryOffset(t *testing.T) {
	srcDir := t.TempDir()
	data, starts := writeTestWAL(t, srcDir, 1, 3)

	for cut := 0; cut <= len(data); cut++ {
		// Entries wholly before the cut survive.
		wantEntries := 0
		for i := range starts {
			if starts[i]+entryLen(t, data, starts, i) <= cut {
				wantEntries++
			} else {
				break
			}
		}
		dir := t.TempDir()
		path := filepath.Join(dir, walFileName)
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		entries := 0
		st, err := replayWAL(dir, 0, func(uint64, []byte) error { entries++; return nil })
		if err != nil {
			t.Fatalf("cut %d: replay error: %v", cut, err)
		}
		if entries != wantEntries {
			t.Fatalf("cut %d: replayed %d entries, want %d", cut, entries, wantEntries)
		}
		wantGood := 0
		if wantEntries > 0 {
			wantGood = starts[wantEntries-1] + entryLen(t, data, starts, wantEntries-1)
		}
		if wantTrunc := int64(cut - wantGood); st.WALTruncatedBytes != wantTrunc {
			t.Fatalf("cut %d: truncated %d bytes, want %d", cut, st.WALTruncatedBytes, wantTrunc)
		}
		if st.WALTruncatedBytes > 0 && !st.WALTornTail {
			t.Fatalf("cut %d: truncation not marked as torn tail", cut)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != int64(wantGood) {
			t.Fatalf("cut %d: file left at %d bytes, want %d", cut, fi.Size(), wantGood)
		}
		// The reopened log must append and replay cleanly on top.
		w, err := openWAL(dir, st.NextLSN, FsyncOff, 0, fixedNow)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append(walPayload(9)); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		entries = 0
		st2, err := replayWAL(dir, 0, func(uint64, []byte) error { entries++; return nil })
		if err != nil || st2.WALTruncatedBytes != 0 {
			t.Fatalf("cut %d: post-truncate replay: entries=%d stats=%+v err=%v", cut, entries, st2, err)
		}
		if entries != wantEntries+1 {
			t.Fatalf("cut %d: post-append replay got %d entries, want %d", cut, entries, wantEntries+1)
		}
	}
}

func entryLen(t *testing.T, data []byte, starts []int, i int) int {
	t.Helper()
	end := len(data)
	if i+1 < len(starts) {
		end = starts[i+1]
	}
	return end - starts[i]
}

// TestWALCorruptEntryStopsReplay flips bits at several positions inside
// the second entry (length prefix, CRC, LSN, payload): replay must keep
// the first entry, stop at the damage, and truncate the rest — without
// ever returning an error or panicking.
func TestWALCorruptEntryStopsReplay(t *testing.T) {
	srcDir := t.TempDir()
	data, starts := writeTestWAL(t, srcDir, 1, 3)
	second := starts[1]
	for _, off := range []int{second, second + 4, second + 8, second + walEntryHeader} {
		for bit := uint(0); bit < 8; bit++ {
			dir := t.TempDir()
			path := filepath.Join(dir, walFileName)
			corrupt := append([]byte(nil), data...)
			corrupt[off] ^= 1 << bit
			if err := os.WriteFile(path, corrupt, 0o644); err != nil {
				t.Fatal(err)
			}
			entries := 0
			st, err := replayWAL(dir, 0, func(uint64, []byte) error { entries++; return nil })
			if err != nil {
				t.Fatalf("off %d bit %d: replay error: %v", off, bit, err)
			}
			if entries != 1 {
				t.Fatalf("off %d bit %d: replayed %d entries, want 1", off, bit, entries)
			}
			if st.WALTruncatedBytes != int64(len(data)-second) {
				t.Fatalf("off %d bit %d: truncated %d bytes, want %d",
					off, bit, st.WALTruncatedBytes, len(data)-second)
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() != int64(second) {
				t.Fatalf("off %d bit %d: file left at %d, want %d", off, bit, fi.Size(), second)
			}
		}
	}
}

// TestWALResetKeepsLSNHorizon: truncating after a snapshot must not reuse
// LSNs, and replay must honor the snapshot's horizon.
func TestWALResetKeepsLSNHorizon(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 1, FsyncAlways, 0, fixedNow)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Append(walPayload(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Reset(); err != nil { // snapshot at NextLSN=4 happened
		t.Fatal(err)
	}
	if lsn, err := w.Append(walPayload(7)); err != nil || lsn != 4 {
		t.Fatalf("post-reset append: lsn=%d err=%v, want 4", lsn, err)
	}
	if lsn, err := w.Append(walPayload(8)); err != nil || lsn != 5 {
		t.Fatalf("post-reset append: lsn=%d err=%v, want 5", lsn, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		minLSN                uint64
		wantEntries, wantSkip int
	}{
		{0, 2, 0}, {4, 2, 0}, {5, 1, 1}, {6, 0, 2},
	} {
		st, err := replayWAL(dir, tc.minLSN, func(uint64, []byte) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if st.WALEntries != tc.wantEntries || st.WALSkipped != tc.wantSkip {
			t.Fatalf("minLSN %d: entries=%d skipped=%d, want %d/%d",
				tc.minLSN, st.WALEntries, st.WALSkipped, tc.wantEntries, tc.wantSkip)
		}
	}
}

func TestWALFsyncIntervalPacing(t *testing.T) {
	dir := t.TempDir()
	var now time.Time
	w, err := openWAL(dir, 1, FsyncInterval, 100*time.Millisecond, func() time.Time { return now })
	if err != nil {
		t.Fatal(err)
	}
	now = time.Unix(10, 0)
	for i := 0; i < 5; i++ {
		if _, err := w.Append(walPayload(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	first := w.syncs.Load() // the first append syncs (lastSync zero)
	if first != 1 {
		t.Fatalf("syncs after burst = %d, want 1", first)
	}
	now = now.Add(200 * time.Millisecond)
	if _, err := w.Append(walPayload(9)); err != nil {
		t.Fatal(err)
	}
	if got := w.syncs.Load(); got != 2 {
		t.Fatalf("syncs after interval elapsed = %d, want 2", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALSyncFailureWedges: after a failed flush/fsync the log must stop
// accepting appends entirely (Linux fsync error semantics: the failed
// bytes may be gone from the page cache, leaving a torn frame that would
// truncate later — acked — entries during recovery). The wedge is sticky:
// every subsequent Append and Sync fails fast with the original error.
func TestWALSyncFailureWedges(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 1, FsyncAlways, 0, fixedNow)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(walPayload(1)); err != nil {
		t.Fatal(err)
	}
	if w.wedged() != nil {
		t.Fatal("healthy log reports wedged")
	}
	w.f.Close() // the next flush/sync fails like a dying disk
	if _, err := w.Append(walPayload(2)); err == nil {
		t.Fatal("append after sync failure succeeded")
	}
	wedge := w.wedged()
	if wedge == nil {
		t.Fatal("failed sync did not wedge the log")
	}
	before := w.appends.Load()
	if _, err := w.Append(walPayload(3)); !errors.Is(err, wedge) {
		t.Fatalf("append on wedged log: %v, want sticky %v", err, wedge)
	}
	if err := w.Sync(); !errors.Is(err, wedge) {
		t.Fatalf("sync on wedged log: %v, want sticky %v", err, wedge)
	}
	if got := w.appends.Load(); got != before {
		t.Fatalf("appends grew %d -> %d on a wedged log", before, got)
	}
}

func testSnapshot() wire.Snapshot {
	return wire.Snapshot{
		Format:  wire.SnapshotFormat,
		NextLSN: 42,
		Messages: []wire.SourcedMessage{
			{Client: "h1", Seq: 8, Type: TypeStep, Step: &wire.StepRecord{Host: 1, Step: 0, Flow: wire.Flow{Src: 1, Dst: 2, SrcPort: 7, DstPort: 8, Proto: 17}, Bytes: 100, StartNS: 5, EndNS: 9}},
			{Client: "h2", Seq: 4, Type: TypeStep, Step: &wire.StepRecord{Host: 2, Step: 1, Flow: wire.Flow{Src: 2, Dst: 3}, Bytes: 50, StartNS: 9, EndNS: 12}},
			{Type: TypeReport, Report: &wire.Report{AtNS: 5, HopsPolled: 3}},
			{Client: "h1", Seq: 9, Type: TypeCF, CF: &wire.Flow{Src: 1, Dst: 2, SrcPort: 7, DstPort: 8, Proto: 17}},
		},
		Acked: []wire.ClientAck{{Client: "h1", Seq: 9}, {Client: "h2", Seq: 4}},
	}
}

func TestSnapshotWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := readSnapshot(dir); err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v, want no snapshot", ok, err)
	}
	want := testSnapshot()
	if err := writeSnapshot(dir, want); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(filepath.Join(dir, snapshotFileName))
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := readSnapshot(dir)
	if err != nil || !ok {
		t.Fatalf("readSnapshot: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip lost data:\n%+v\nvs\n%+v", got, want)
	}
	// Determinism: writing the same state again is byte-identical.
	if err := writeSnapshot(dir, want); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(filepath.Join(dir, snapshotFileName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("snapshot serialization not deterministic:\n%s\nvs\n%s", first, second)
	}
	// No temp debris left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("snapshot dir has %d entries, want 1: %v", len(entries), entries)
	}
}

func TestReadSnapshotRejectsCorruptAndWrongFormat(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotFileName), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readSnapshot(dir); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotFileName), []byte(`{"format":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readSnapshot(dir); err == nil {
		t.Fatal("wrong-format snapshot accepted")
	}
}

// TestFormat1SnapshotRefused: the two snapshot forms this daemon wrote
// before format 2 — the standalone one (derived records/reports/cfs) and
// the shard one (messages) — are refused with the format error. Decoding
// either as format 2 would silently recover an empty or partial state and
// then truncate the WAL over it.
func TestFormat1SnapshotRefused(t *testing.T) {
	for name, old := range map[string]string{
		"standalone": `{"format":1,"next_lsn":7,"records":[{"host":3,"step":1,"flow":{"src":3,"dst":4},"bytes":64,"start_ns":1,"end_ns":9}],"cfs":[{"src":3,"dst":4}],"acked":[{"client":"h1","seq":6}]}`,
		"shard":      `{"format":1,"next_lsn":7,"acked":[{"client":"h1","seq":6}],"messages":[{"client":"h1","seq":6,"type":"cf","cf":{"src":3,"dst":4}}]}`,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, snapshotFileName), []byte(old+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok, err := readSnapshot(dir); ok || err == nil || !strings.Contains(err.Error(), "format 1, want 2") {
				t.Fatalf("readSnapshot: ok=%v err=%v, want the format error", ok, err)
			}
			if rs, err := Recover(dir); err == nil {
				t.Fatalf("Recover yielded a state from a format-1 snapshot: %+v", rs.Stats)
			}
			cfg := DefaultServerConfig()
			cfg.Durability = &DurabilityConfig{Dir: dir}
			if srv, err := ServeWith("127.0.0.1:0", cfg); err == nil {
				srv.Close()
				t.Fatal("daemon started on a format-1 snapshot")
			}
		})
	}
}

// FuzzWALDecode: the entry decoder must make progress or stop with one of
// the two replay-terminating errors on arbitrary bytes — never panic,
// never loop — and whatever it accepts must re-encode to the same bytes.
func FuzzWALDecode(f *testing.F) {
	f.Add(encodeWALEntry(nil, 1, []byte(`{"type":"cf","cf":{"src":1,"dst":2}}`)))
	f.Add(encodeWALEntry(encodeWALEntry(nil, 1, []byte("a")), 2, nil))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		rest := data
		for len(rest) > 0 {
			lsn, payload, next, err := decodeWALEntry(rest)
			if err != nil {
				if !errors.Is(err, errWALTorn) && !errors.Is(err, errWALCorrupt) {
					t.Fatalf("unexpected decode error class: %v", err)
				}
				return
			}
			if len(next) >= len(rest) {
				t.Fatalf("decode made no progress at %d bytes", len(rest))
			}
			consumed := rest[:len(rest)-len(next)]
			if re := encodeWALEntry(nil, lsn, payload); !bytes.Equal(re, consumed) {
				t.Fatalf("re-encode mismatch:\n% x\nvs\n% x", re, consumed)
			}
			rest = next
		}
	})
}
