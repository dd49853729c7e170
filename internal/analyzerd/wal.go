package analyzerd

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// The write-ahead log makes every accepted message durable before it is
// acknowledged. The file is a sequence of length-prefixed, CRC-checked
// entries (little-endian):
//
//	uint32 length   // 8 + len(payload): the lsn+payload span the CRC covers
//	uint32 crc32c   // Castagnoli CRC over the lsn+payload bytes
//	uint64 lsn      // log sequence number, strictly increasing, never reused
//	payload         // the accepted protocol line (Message JSON, no newline)
//
// LSNs survive snapshot truncation: a snapshot records the NextLSN it
// covers, the WAL is truncated afterwards, and recovery skips any entry
// below the snapshot's horizon — so a crash between "snapshot durable" and
// "WAL truncated" replays nothing twice. A torn tail (a crash mid-write)
// or a CRC-corrupt entry ends replay: everything from the first bad byte
// on is truncated with a counted warning, never a panic. A failed write,
// flush, or fsync on the append side permanently wedges the open log
// (see wal.failed): only a restart, which re-truncates the debris, may
// ack messages again.

// FsyncPolicy selects when the WAL reaches stable storage. The zero value
// is FsyncAlways: the safest policy is the default.
type FsyncPolicy int

// Fsync policies.
const (
	// FsyncAlways syncs after every append: an acknowledged message is on
	// stable storage before the ack is sent. SIGKILL loses nothing acked.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs at most once per configured interval (appends in
	// between are flushed to the OS but not fsynced): a kernel crash or
	// power cut may lose the last interval's messages, a process kill does
	// not.
	FsyncInterval
	// FsyncOff never syncs an append, only flushes it to the OS: an
	// appended message is as durable as the OS makes it. The policy
	// governs appends alone; a snapshot (its temp file and directory), a
	// WAL reset and a WAL close sync under every policy.
	FsyncOff
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncOff:
		return "off"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// ParseFsyncPolicy parses the flag form: always | interval | off.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "off":
		return FsyncOff, nil
	default:
		return 0, fmt.Errorf("analyzerd: unknown fsync policy %q (want always|interval|off)", s)
	}
}

const (
	walEntryHeader = 16 // length + crc + lsn
	// maxWALEntry caps one entry so a corrupt length prefix cannot drive a
	// huge allocation during replay. Matches the server's default line cap.
	maxWALEntry = 64 << 20
	walFileName = "wal.log"
	// defaultFsyncInterval paces FsyncInterval when no interval is given.
	defaultFsyncInterval = 100 * time.Millisecond
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Decode errors. Both mean "stop replaying here"; they are distinguished
// only for reporting (a torn tail is expected after a crash, a CRC
// mismatch suggests corruption).
var (
	errWALTorn    = errors.New("analyzerd: torn WAL entry")
	errWALCorrupt = errors.New("analyzerd: corrupt WAL entry")
)

// encodeWALEntry appends one framed entry to dst and returns it.
func encodeWALEntry(dst []byte, lsn uint64, payload []byte) []byte {
	var hdr [walEntryHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(8+len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:16], lsn)
	crc := crc32.Update(0, crcTable, hdr[8:16])
	crc = crc32.Update(crc, crcTable, payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// decodeWALEntry consumes one entry from b. It returns the entry's LSN and
// payload plus the remaining bytes, errWALTorn when b ends mid-entry, or
// errWALCorrupt when the frame is self-inconsistent. It never panics on
// arbitrary input (fuzzed).
func decodeWALEntry(b []byte) (lsn uint64, payload, rest []byte, err error) {
	if len(b) < walEntryHeader {
		return 0, nil, nil, errWALTorn
	}
	length := binary.LittleEndian.Uint32(b[0:4])
	if length < 8 || length > maxWALEntry {
		return 0, nil, nil, errWALCorrupt
	}
	if uint64(len(b)-8) < uint64(length) {
		return 0, nil, nil, errWALTorn
	}
	body := b[8 : 8+length]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(b[4:8]) {
		return 0, nil, nil, errWALCorrupt
	}
	return binary.LittleEndian.Uint64(body[:8]), body[8:], b[8+length:], nil
}

// wal is the append side of the write-ahead log. Not safe for concurrent
// use: the server's single applier goroutine owns it.
type wal struct {
	f        *os.File
	w        *bufio.Writer
	nextLSN  uint64
	policy   FsyncPolicy
	interval time.Duration
	lastSync time.Time
	now      func() time.Time

	// failed, once set, permanently wedges the log. After a failed write,
	// flush, or fsync the file may hold a torn frame whose bytes the
	// kernel silently dropped from the page cache (Linux fsync error
	// semantics), so a later entry that syncs fine — and is acked — would
	// still be truncated at that frame during recovery, losing an acked
	// message. Every subsequent Append/Sync returns the original error;
	// the server NACKs (retryable) and reports unready so a supervisor
	// restarts the daemon, which reopens the log and truncates the
	// debris. An atomic pointer because Ready() reads it from other
	// goroutines while the applier writes it.
	failed atomic.Pointer[error]

	// appends and syncs are atomics only because PublishStats gauges read
	// them from metrics-scrape goroutines; the applier is the sole writer.
	appends atomic.Int64
	syncs   atomic.Int64
}

// wedge records the log's first fatal error and returns it (or the
// earlier one if the log already failed).
func (w *wal) wedge(err error) error {
	w.failed.CompareAndSwap(nil, &err)
	return w.wedged()
}

// wedged returns the error that wedged the log, or nil while it is
// healthy.
func (w *wal) wedged() error {
	if p := w.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// openWAL opens (or creates) the log at dir/wal.log for appending, with
// LSN assignment starting at nextLSN.
func openWAL(dir string, nextLSN uint64, policy FsyncPolicy, interval time.Duration, now func() time.Time) (*wal, error) {
	if interval <= 0 {
		interval = defaultFsyncInterval
	}
	f, err := os.OpenFile(filepath.Join(dir, walFileName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("analyzerd: wal: %w", err)
	}
	return &wal{
		f:        f,
		w:        bufio.NewWriter(f),
		nextLSN:  nextLSN,
		policy:   policy,
		interval: interval,
		now:      now,
	}, nil
}

// Append frames the payload under the next LSN, writes it, and makes it
// as durable as the policy promises. The returned LSN identifies the entry
// for the snapshot horizon.
func (w *wal) Append(payload []byte) (uint64, error) {
	if err := w.wedged(); err != nil {
		return 0, err
	}
	lsn := w.nextLSN
	entry := encodeWALEntry(nil, lsn, payload)
	if _, err := w.w.Write(entry); err != nil {
		return 0, w.wedge(fmt.Errorf("analyzerd: wal append: %w", err))
	}
	w.nextLSN++
	w.appends.Add(1)
	switch w.policy {
	case FsyncAlways:
		if err := w.Sync(); err != nil {
			return 0, err
		}
	case FsyncInterval:
		t := w.now()
		if t.Sub(w.lastSync) >= w.interval {
			if err := w.Sync(); err != nil {
				return 0, err
			}
			w.lastSync = t
		} else if err := w.w.Flush(); err != nil {
			return 0, w.wedge(fmt.Errorf("analyzerd: wal flush: %w", err))
		}
	case FsyncOff:
		if err := w.w.Flush(); err != nil {
			return 0, w.wedge(fmt.Errorf("analyzerd: wal flush: %w", err))
		}
	}
	return lsn, nil
}

// Sync flushes buffered entries and forces them to stable storage. A
// failure wedges the log (see wal.failed): appending past a failed sync
// could ack messages that recovery later truncates at the torn frame.
func (w *wal) Sync() error {
	if err := w.wedged(); err != nil {
		return err
	}
	if err := w.w.Flush(); err != nil {
		return w.wedge(fmt.Errorf("analyzerd: wal flush: %w", err))
	}
	if err := w.f.Sync(); err != nil {
		return w.wedge(fmt.Errorf("analyzerd: wal sync: %w", err))
	}
	w.syncs.Add(1)
	return nil
}

// Reset truncates the log after a snapshot made its contents redundant.
// LSNs keep counting: recovery distinguishes pre- and post-snapshot
// entries by the snapshot's NextLSN, so a crash between the snapshot
// rename and this truncation replays nothing twice.
func (w *wal) Reset() error {
	if err := w.Sync(); err != nil {
		return err
	}
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("analyzerd: wal truncate: %w", err)
	}
	return nil
}

// Close flushes, syncs, and releases the log.
func (w *wal) Close() error {
	err := w.Sync()
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("analyzerd: wal close: %w", cerr)
	}
	return err
}

// abandon drops buffered writes and the descriptor without flushing — the
// crash-test stand-in for SIGKILL: whatever the policy already made
// durable is on disk, everything else is torn away.
func (w *wal) abandon() { _ = w.f.Close() }

// replayWAL reads dir/wal.log and hands every intact entry with
// lsn >= minLSN to apply, in log order. Replay ends at the first torn or
// corrupt entry; the file is truncated to the last intact boundary so the
// reopened log appends cleanly. A missing file is an empty log.
func replayWAL(dir string, minLSN uint64, apply func(lsn uint64, payload []byte) error) (RecoverStats, error) {
	var st RecoverStats
	path := filepath.Join(dir, walFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return st, nil
		}
		return st, fmt.Errorf("analyzerd: wal replay: %w", err)
	}
	rest := data
	good := 0 // bytes of intact entries
	for len(rest) > 0 {
		lsn, payload, next, err := decodeWALEntry(rest)
		if err != nil {
			st.WALTruncatedBytes = int64(len(rest))
			st.WALTornTail = errors.Is(err, errWALTorn)
			break
		}
		good = len(data) - len(next)
		rest = next
		if lsn < minLSN {
			st.WALSkipped++
			continue
		}
		st.WALEntries++
		if st.NextLSN <= lsn {
			st.NextLSN = lsn + 1
		}
		if err := apply(lsn, payload); err != nil {
			st.WALMalformed++
		}
	}
	if st.WALTruncatedBytes > 0 {
		if err := os.Truncate(path, int64(good)); err != nil {
			return st, fmt.Errorf("analyzerd: wal truncate after torn tail: %w", err)
		}
	}
	return st, nil
}
