package analyzerd

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"vedrfolnir/internal/wire"
)

const snapshotFileName = "snapshot.json"

// writeSnapshot atomically replaces dir/snapshot.json: the bytes are
// written to a temp file in the same directory, fsynced, renamed over the
// live name, and the directory is fsynced so the rename itself is durable.
// A crash at any point leaves either the old snapshot or the new one,
// never a torn mix.
func writeSnapshot(dir string, snap wire.Snapshot) error {
	b, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("analyzerd: snapshot: %w", err)
	}
	b = append(b, '\n')
	tmp, err := os.CreateTemp(dir, snapshotFileName+".tmp*")
	if err != nil {
		return fmt.Errorf("analyzerd: snapshot: %w", err)
	}
	_, err = tmp.Write(b)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, snapshotFileName))
	}
	if err != nil {
		_ = os.Remove(tmp.Name()) // the failed step is the error worth returning
		return fmt.Errorf("analyzerd: snapshot: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed file survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("analyzerd: snapshot: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("analyzerd: snapshot: %w", err)
	}
	return nil
}

// readSnapshot loads dir/snapshot.json. ok is false when no snapshot
// exists; an unreadable or wrong-format snapshot is an error (snapshot
// writes are atomic, so a corrupt one means the storage itself is
// damaged and silently ignoring it would replay an incomplete state).
func readSnapshot(dir string) (wire.Snapshot, bool, error) {
	b, err := os.ReadFile(filepath.Join(dir, snapshotFileName))
	if err != nil {
		if os.IsNotExist(err) {
			return wire.Snapshot{}, false, nil
		}
		return wire.Snapshot{}, false, fmt.Errorf("analyzerd: snapshot: %w", err)
	}
	snap, err := wire.DecodeSnapshot(b)
	if err != nil {
		return wire.Snapshot{}, false, fmt.Errorf("analyzerd: snapshot %s: %w",
			filepath.Join(dir, snapshotFileName), err)
	}
	if snap.Format != wire.SnapshotFormat {
		return wire.Snapshot{}, false, fmt.Errorf("analyzerd: snapshot has format %d, want %d",
			snap.Format, wire.SnapshotFormat)
	}
	return *snap, true, nil
}

// RecoverStats accounts for what a recovery rebuilt and what it had to
// discard. Torn tails and truncated bytes are counted warnings, never
// errors: they are the expected debris of a crash.
type RecoverStats struct {
	// SnapshotLoaded reports whether a snapshot anchored the recovery.
	SnapshotLoaded bool
	// SnapshotMessages counts the messages the snapshot held.
	SnapshotMessages int
	// WALEntries counts intact log entries replayed on top of the
	// snapshot; WALSkipped counts intact entries below the snapshot's LSN
	// horizon (already folded into it by a snapshot that raced the crash).
	WALEntries int
	WALSkipped int
	// WALMalformed counts replayed entries whose payload no longer parses
	// as a protocol message (skipped).
	WALMalformed int
	// WALTruncatedBytes is the size of the torn or corrupt tail dropped
	// from the log; WALTornTail distinguishes a clean mid-write tear from
	// a CRC mismatch.
	WALTruncatedBytes int64
	WALTornTail       bool
	// Reassigned counts recovered messages dropped because the shard map
	// of the restarted incarnation assigns their client to a different
	// shard (the owning shard replays them instead).
	Reassigned int
	// NextLSN is the first LSN the reopened log will assign.
	NextLSN uint64
}

// RecoveredState is everything Recover rebuilt from a durability
// directory: the snapshot (zero-valued when none existed) plus the WAL
// tail in log order.
type RecoveredState struct {
	Snapshot wire.Snapshot
	// Messages are the replayed WAL entries at or above the snapshot
	// horizon, in ingest order, re-validated through ParseMessage.
	Messages []*Message
	Stats    RecoverStats
}

// Recover reads the snapshot and write-ahead log under dir and rebuilds
// the analyzer state they describe. Applying the snapshot and then the
// messages, in order, yields a byte-identical Diagnose() to the run that
// wrote them. Torn-tail and CRC-corrupt log entries are truncated with a
// counted warning; Recover fails only on I/O errors or a corrupt
// snapshot.
func Recover(dir string) (*RecoveredState, error) {
	snap, ok, err := readSnapshot(dir)
	if err != nil {
		return nil, err
	}
	rs := &RecoveredState{Snapshot: snap}
	stats, err := replayWAL(dir, snap.NextLSN, func(_ uint64, payload []byte) error {
		msg, err := ParseMessage(payload)
		if err != nil {
			return err
		}
		rs.Messages = append(rs.Messages, msg)
		return nil
	})
	if err != nil {
		return nil, err
	}
	stats.SnapshotLoaded = ok
	stats.SnapshotMessages = len(snap.Messages)
	stats.NextLSN = max(stats.NextLSN, snap.NextLSN)
	rs.Stats = stats
	return rs, nil
}
