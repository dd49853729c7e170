// Package analyzerd implements the centralized analyzer of the paper's
// architecture (Fig 3) as a network service: host-side monitors connect
// over TCP and stream newline-delimited JSON messages — step records as
// collective steps complete, telemetry reports as detections fire, and the
// collective-flow census — and the analyzer aggregates them and produces
// diagnoses on demand.
//
// In the simulator the monitors and analyzer share a process, but this
// service is how a real deployment wires them: one analyzerd per cluster,
// one client per host agent. The service is hardened against misbehaving
// peers: per-connection read deadlines bound a stalled client, the line
// scanner is capped so an unbounded line cannot grow the buffer without
// limit, malformed lines are counted and skipped instead of killing the
// connection, and every submission is named and sequence-numbered and is
// acknowledged, so a ReliableClient can reconnect and resubmit unacked
// records exactly once.
//
// The serving path is also crash-safe and overload-safe. With a
// DurabilityConfig, every accepted message is appended to a CRC-checked
// write-ahead log before it is acknowledged (fsync policy configurable),
// periodic snapshots bound replay time, and a restarted daemon calls
// Recover to reach a byte-identical Diagnose() to an uninterrupted run.
// Accepted messages flow through a bounded ingest queue drained by a
// single applier goroutine; when the queue is full the server replies with
// an explicit retryable NACK instead of degrading for everyone.
package analyzerd

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vedrfolnir/internal/diagnose"
	"vedrfolnir/internal/obs"
	"vedrfolnir/internal/wire"
)

// Message is one line of the monitor→analyzer protocol; see wire.Message.
type Message = wire.Message

// Protocol message types: the three ingest payloads, mirroring
// wire.MsgStep/MsgReport/MsgCF. There is no other verb; a fleet drain
// reads a shard's state from its directory, not over the protocol.
const (
	TypeStep   = "step"
	TypeReport = "report"
	TypeCF     = "cf"
)

// ParseMessage decodes and validates one protocol line: known type, the
// matching payload present, no extra payloads, and for an ingest line a
// named client and a sequence number from 1. It is the single entry point
// for untrusted input — the shard's connection handler, the fleet router,
// WAL recovery and the fuzz target all come through it — so every
// malformed shape must come back as an error, never a panic.
func ParseMessage(line []byte) (*Message, error) {
	msg, err := wire.DecodeMessage(line)
	if err != nil {
		return nil, err
	}
	if err := validateMessage(msg); err != nil {
		return nil, err
	}
	return msg, nil
}

// validateMessage is the whole ingest contract: a step, report or cf line
// carries exactly its payload, a named client and a seq >= 1 (the client's
// ack window is keyed by the name and advanced by the seq); any other type
// is refused. Whoever accepts a line — a lone daemon, a shard, the router
// in front of it — accepts it here.
func validateMessage(msg *Message) error {
	payloads := 0
	if msg.Step != nil {
		payloads++
	}
	if msg.Report != nil {
		payloads++
	}
	if msg.CF != nil {
		payloads++
	}
	if payloads > 1 {
		return fmt.Errorf("%d payloads in one message", payloads)
	}
	switch msg.Type {
	case TypeStep:
		if msg.Step == nil {
			return errors.New("step message without payload")
		}
	case TypeReport:
		if msg.Report == nil {
			return errors.New("report message without payload")
		}
	case TypeCF:
		if msg.CF == nil {
			return errors.New("cf message without payload")
		}
	default:
		return fmt.Errorf("unknown message type %q", msg.Type)
	}
	if msg.Client == "" {
		return fmt.Errorf("%s message without a client", msg.Type)
	}
	if msg.Seq < 1 {
		return fmt.Errorf("%s message with seq %d, want >= 1", msg.Type, msg.Seq)
	}
	return nil
}

// DurabilityConfig makes accepted messages crash-safe: a write-ahead log
// under Dir, acknowledged only per the fsync policy, plus periodic atomic
// snapshots that bound replay time. The zero Fsync value is FsyncAlways.
type DurabilityConfig struct {
	// Dir holds wal.log and snapshot.json. Created if absent. Required.
	Dir string
	// Fsync selects when the WAL reaches stable storage (always /
	// interval / off); see FsyncPolicy.
	Fsync FsyncPolicy
	// FsyncInterval paces FsyncInterval syncs (default 100ms).
	FsyncInterval time.Duration
	// SnapshotEvery writes a snapshot (and truncates the WAL) after this
	// many applied messages. 0 = never: the WAL is then the whole state.
	SnapshotEvery int
}

// ServerConfig hardens the service against misbehaving peers and overload.
type ServerConfig struct {
	// ReadTimeout bounds how long a connection may go without delivering
	// bytes before it is dropped (a stalled client must not hold its
	// handler — or Close — hostage). <= 0 disables the deadline.
	ReadTimeout time.Duration
	// MaxLineBytes caps one protocol line; a longer line terminates the
	// connection (counted in Stats().Oversized) instead of growing the
	// scanner buffer without bound. <= 0 uses the default (16 MiB).
	MaxLineBytes int
	// MaxQueue bounds the ingest queue between connection handlers and
	// the applier. A full queue produces an explicit retryable
	// "overloaded" NACK instead of unbounded memory growth. <= 0 uses the
	// default (1024).
	MaxQueue int
	// AckTTL evicts a disconnected client's ack window after this idle
	// time (counted in Stats().AckEvictions), bounding the per-client
	// dedup state. 0 uses the default (15m); < 0 never evicts.
	AckTTL time.Duration
	// Durability, when non-nil, write-ahead-logs and snapshots every
	// accepted message so a restart recovers a byte-identical state.
	Durability *DurabilityConfig
	// Shard places this server in a diagnosis fleet: it only accepts
	// clients the shard map assigns to it (others get a moved NACK
	// carrying the owning shard) and recovery re-filters ownership against
	// the map. Every server is a shard: nil means shard 0 of the
	// one-shard map, which owns every client.
	Shard *ShardConfig
	// Now injects the clock used for ack-window TTLs and WAL fsync
	// pacing. Nil uses the wall clock. (These are real-daemon
	// concerns; simulation time never reaches this package.)
	Now func() time.Time
	// Log, when set, receives structured connection-level events
	// (accepted peers, malformed and oversized lines, timeouts, duplicate
	// resubmissions, rejected ingests). Nil keeps the server silent.
	Log *slog.Logger

	// testApplyGate, when set (in-package tests only), makes the applier
	// receive from it before each apply — a deterministic way to hold the
	// ingest queue full.
	testApplyGate chan struct{}
}

// DefaultServerConfig returns the production hardening defaults. The read
// timeout is generous — an idle monitor between collectives is normal —
// but finite, and a dropped idle client just reconnects.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		ReadTimeout:  2 * time.Minute,
		MaxLineBytes: 16 << 20,
		MaxQueue:     1024,
	}
}

// ServerStats counts the abuse and overload the server shrugged off.
type ServerStats struct {
	// Malformed lines were skipped (with an error reply) rather than
	// killing the connection.
	Malformed int64
	// Oversized lines exceeded MaxLineBytes and terminated the connection.
	Oversized int64
	// TimedOut connections were dropped by the read deadline.
	TimedOut int64
	// Rejected messages parsed but failed ingestion.
	Rejected int64
	// Duplicates are resubmitted already-acked messages (suppressed).
	Duplicates int64
	// Overloaded messages were NACKed because the ingest queue was full.
	Overloaded int64
	// AckEvictions counts per-client ack windows dropped after the idle
	// TTL expired on a disconnected client.
	AckEvictions int64
	// WALErrors counts messages NACKed because the write-ahead log could
	// not make them durable.
	WALErrors int64
	// Moved messages named a client the shard map assigns to another
	// shard; they were NACKed with the owning shard index.
	Moved int64
}

// clientState is everything the server remembers about one submitting
// client: the ack highwater (a cumulative sliding window over its
// sequence space — O(1) regardless of how much it has sent) and the
// idle-tracking needed to evict it after disconnect.
type clientState struct {
	acked    int64
	conns    int
	lastSeen time.Time
	// retryLow is the lowest seq the server load-shed with a retryable
	// NACK under this state. While the state has no live highwater
	// (acked == 0) the applier refuses to baseline past it — the shed
	// message's resubmission must land first or it would be wrongly
	// suppressed as a duplicate. Cleared once acked reaches it.
	retryLow int64
}

// ingestItem is one accepted message queued for the applier. raw is the
// exact protocol line (copied out of the scanner), which the WAL persists
// so recovery re-parses the identical message.
type ingestItem struct {
	msg  *Message
	raw  []byte
	conn net.Conn
}

// Server accepts monitor connections and aggregates their submissions.
type Server struct {
	ln  net.Listener
	cfg ServerConfig
	log *slog.Logger
	now func() time.Time

	mu sync.Mutex
	// sourced is the server's only retained ingest state: every accepted
	// message with its (client, seq) provenance, in ingest order. It is
	// append-only, so a prefix read under mu stays valid after unlocking.
	// Diagnose and Counts fold it on demand; snapshots serialize it as
	// is.
	sourced []wire.SourcedMessage // guarded by mu
	// clients holds the per-client ack windows and idle state; entries
	// for disconnected clients are evicted after AckTTL.
	clients map[string]*clientState // guarded by mu
	conns   map[net.Conn]struct{}   // guarded by mu
	stats   ServerStats             // guarded by mu
	closed  bool                    // guarded by mu

	// index is this server's slot in the shard map; ring is the
	// consistent-hash ownership function and shardMap the map it was
	// built from. All three are set once in ServeWith.
	index    int
	ring     *wire.HashRing
	shardMap wire.ShardMap

	// wal and sinceSnap are owned by the applier goroutine (and by
	// stop(), which runs strictly after the applier exits).
	wal       *wal
	sinceSnap int
	recovery  RecoverStats
	snapshots atomic.Int64
	// bodySize estimates the next snapshot's length: the last one's,
	// plus each line applied since (its encoding is as long).
	bodySize atomic.Int64

	queue       chan ingestItem
	applierDone chan struct{}
	wg          sync.WaitGroup
}

// Serve starts the analyzer on addr ("127.0.0.1:0" for an ephemeral port)
// with the default hardening configuration.
func Serve(addr string) (*Server, error) {
	return ServeWith(addr, DefaultServerConfig())
}

// ServeWith starts the analyzer with an explicit configuration. With a
// DurabilityConfig it first recovers the snapshot and WAL under Dir, so
// the listener only opens once the restored state is complete.
func ServeWith(addr string, cfg ServerConfig) (*Server, error) {
	if cfg.MaxLineBytes <= 0 {
		cfg.MaxLineBytes = 16 << 20
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 1024
	}
	if cfg.AckTTL == 0 {
		cfg.AckTTL = 15 * time.Minute
	}
	shard := ShardConfig{Map: wire.ShardMap{Shards: 1}}
	if cfg.Shard != nil {
		shard = *cfg.Shard
	}
	ring, err := shard.ring()
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:         cfg,
		log:         cfg.Log,
		now:         cfg.Now,
		clients:     make(map[string]*clientState),
		conns:       make(map[net.Conn]struct{}),
		index:       shard.Index,
		ring:        ring,
		shardMap:    shard.Map,
		queue:       make(chan ingestItem, cfg.MaxQueue),
		applierDone: make(chan struct{}),
	}
	if s.log == nil {
		s.log = obs.NopLogger()
	}
	if s.now == nil {
		//lint:ignore nosystime ack TTLs and fsync pacing on a real TCP daemon; wall clock never reaches simulation state
		s.now = time.Now
	}
	if cfg.Durability != nil {
		if err := s.openDurability(*cfg.Durability, shard); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		if s.wal != nil {
			_ = s.wal.Close() // the listen failure is the error worth returning
		}
		return nil, fmt.Errorf("analyzerd: %w", err)
	}
	s.ln = ln
	go s.applier()
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// openDurability recovers the state under dur.Dir into memory and opens
// the WAL for appending.
func (s *Server) openDurability(dur DurabilityConfig, shard ShardConfig) error {
	if dur.Dir == "" {
		return errors.New("analyzerd: DurabilityConfig.Dir is required")
	}
	if err := os.MkdirAll(dur.Dir, 0o755); err != nil {
		return fmt.Errorf("analyzerd: %w", err)
	}
	state, stats, err := RecoverShard(dur.Dir, shard)
	if err != nil {
		return err
	}
	s.applyRecovered(state)
	s.recovery = stats
	if stats.WALTruncatedBytes > 0 {
		s.log.Warn("WAL tail truncated during recovery",
			"bytes", stats.WALTruncatedBytes, "torn", stats.WALTornTail)
	}
	if stats.Unreplayable > 0 {
		s.log.Warn("recovery skipped snapshot messages without their payload", "messages", stats.Unreplayable)
	}
	w, err := openWAL(dur.Dir, stats.NextLSN, dur.Fsync, dur.FsyncInterval, s.now)
	if err != nil {
		return err
	}
	s.wal = w
	return nil
}

// applyRecovered loads a recovered state into memory, without re-logging:
// its messages become the stream and its highwaters the ack windows. It
// runs before the listener opens, but takes s.mu anyway: the lock is
// uncontended and keeps the guarded-state discipline uniform.
func (s *Server) applyRecovered(state *wire.ShardState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	s.sourced = state.Messages
	for _, a := range state.Acked {
		s.clients[a.Client] = &clientState{acked: a.Seq, lastSeen: now}
	}
}

// clientAcked returns client's ack highwater. Callers hold s.mu.
func (s *Server) clientAcked(client string) int64 {
	if st, ok := s.clients[client]; ok {
		return st.acked
	}
	return 0
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats returns a snapshot of the abuse counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Recovery returns what the startup recovery rebuilt and discarded (zero
// without a DurabilityConfig).
func (s *Server) Recovery() RecoverStats {
	return s.recovery
}

// Conns returns the number of live client connections.
func (s *Server) Conns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// QueueDepth returns how many accepted messages await the applier.
func (s *Server) QueueDepth() int { return len(s.queue) }

// Ready reports whether the server is accepting and ingesting — the
// /readyz contract. It returns an error while draining or closed, and
// once the WAL has wedged (a failed flush or fsync stops all acks; only
// a restart recovers the log), so a supervisor sees the daemon needs
// restarting instead of NACKing every client forever.
func (s *Server) Ready() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("analyzerd: draining")
	}
	if s.wal != nil {
		if err := s.wal.wedged(); err != nil {
			return err
		}
	}
	return nil
}

// PublishStats exposes the server's abuse counters, ingest totals, queue
// and WAL state on the registry as live gauges (each read re-snapshots
// the server), so a /metrics or /debug/vars endpoint reports them without
// polling glue.
func (s *Server) PublishStats(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("vedr_analyzerd_malformed_total", "protocol lines skipped as malformed",
		func() int64 { return s.Stats().Malformed })
	reg.GaugeFunc("vedr_analyzerd_oversized_total", "connections dropped for oversized lines",
		func() int64 { return s.Stats().Oversized })
	reg.GaugeFunc("vedr_analyzerd_timedout_total", "connections dropped by the read deadline",
		func() int64 { return s.Stats().TimedOut })
	reg.GaugeFunc("vedr_analyzerd_rejected_total", "messages that parsed but failed ingestion",
		func() int64 { return s.Stats().Rejected })
	reg.GaugeFunc("vedr_analyzerd_duplicates_total", "resubmitted already-acked messages suppressed",
		func() int64 { return s.Stats().Duplicates })
	reg.GaugeFunc("vedr_analyzerd_overloaded_total", "messages NACKed because the ingest queue was full",
		func() int64 { return s.Stats().Overloaded })
	reg.GaugeFunc("vedr_analyzerd_ack_evictions_total", "idle client ack windows evicted",
		func() int64 { return s.Stats().AckEvictions })
	reg.GaugeFunc("vedr_analyzerd_wal_errors_total", "messages NACKed because the WAL append failed",
		func() int64 { return s.Stats().WALErrors })
	reg.GaugeFunc("vedr_analyzerd_moved_total", "messages NACKed because another shard owns the client",
		func() int64 { return s.Stats().Moved })
	reg.GaugeFunc("vedr_analyzerd_connections", "live client connections",
		func() int64 { return int64(s.Conns()) })
	reg.GaugeFunc("vedr_analyzerd_queue_depth", "accepted messages awaiting the applier",
		func() int64 { return int64(s.QueueDepth()) })
	reg.GaugeFunc("vedr_analyzerd_queue_capacity", "ingest queue bound",
		func() int64 { return int64(cap(s.queue)) })
	reg.GaugeFunc("vedr_analyzerd_records", "step records ingested",
		func() int64 { r, _, _ := s.Counts(); return int64(r) })
	reg.GaugeFunc("vedr_analyzerd_reports", "telemetry reports ingested",
		func() int64 { _, r, _ := s.Counts(); return int64(r) })
	reg.GaugeFunc("vedr_analyzerd_cfs", "collective flows registered",
		func() int64 { _, _, c := s.Counts(); return int64(c) })
	reg.GaugeFunc("vedr_analyzerd_snapshots_total", "state snapshots written",
		func() int64 { return s.snapshots.Load() })
	if s.wal != nil {
		reg.GaugeFunc("vedr_analyzerd_wal_appends_total", "messages appended to the write-ahead log",
			func() int64 { return s.wal.appends.Load() })
		reg.GaugeFunc("vedr_analyzerd_wal_syncs_total", "WAL fsyncs issued",
			func() int64 { return s.wal.syncs.Load() })
		rec := s.recovery
		reg.GaugeFunc("vedr_analyzerd_recovered_wal_entries", "WAL entries replayed at startup",
			func() int64 { return int64(rec.WALEntries) })
		reg.GaugeFunc("vedr_analyzerd_recovered_truncated_bytes", "torn/corrupt WAL tail bytes dropped at startup",
			func() int64 { return rec.WALTruncatedBytes })
		reg.GaugeFunc("vedr_analyzerd_recovered_messages", "messages restored from the snapshot at startup",
			func() int64 { return int64(rec.SnapshotMessages) })
	}
}

// Close stops accepting, severs live connections, and waits for handlers
// and the applier to drain. A stalled client cannot block it: its
// connection is closed out from under its handler. Queued messages are
// still applied (and, with durability, logged) before Close returns; then
// the WAL is synced and closed. It writes no snapshot: the directory holds
// the last periodic snapshot plus the WAL tail, as after a crash, and a
// restart (or RecoverShard) replays the tail.
func (s *Server) Close() error { return s.stop(false) }

// Abort is the in-process SIGKILL, the crash seam the analyzerd and fleet
// tests share: connections die, the listener closes, whatever the fsync
// policy already made durable stays on disk, and no final sync is
// written — exactly what a killed process leaves behind.
func (s *Server) Abort() { _ = s.stop(true) }

// stop is the one teardown; abandon drops the log unsynced, as a kill
// would.
func (s *Server) stop(abandon bool) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for conn := range s.conns {
		_ = conn.Close() // severing peers; their handlers report the close
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()     // all handlers (the only queue senders) have exited
	close(s.queue)  // the applier drains what's left and exits
	<-s.applierDone //
	if s.wal == nil {
		return err
	}
	if abandon {
		s.wal.abandon()
		return err
	}
	if serr := s.wal.Close(); serr != nil && err == nil {
		err = serr
	}
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close() // racing a shutdown; nothing was written yet
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				_ = conn.Close() // handler already surfaced any I/O error
			}()
			s.handle(conn)
		}()
	}
}

// deadlineReader re-arms the connection's read deadline before every read,
// so the deadline bounds inactivity rather than total connection lifetime.
type deadlineReader struct {
	conn net.Conn
	d    time.Duration
}

func (r *deadlineReader) Read(p []byte) (int, error) {
	//lint:ignore nosystime read deadline on a real TCP connection; wall clock never reaches simulation state
	if err := r.conn.SetReadDeadline(time.Now().Add(r.d)); err != nil {
		return 0, err
	}
	return r.conn.Read(p)
}

func (s *Server) handle(conn net.Conn) {
	peer := conn.RemoteAddr().String()
	s.log.Info("client connected", "peer", peer)
	// seen tracks which client keys this connection submitted under, so
	// the disconnect can release them for TTL eviction.
	seen := make(map[string]bool)
	defer func() {
		s.releaseClients(seen)
		s.log.Info("client disconnected", "peer", peer)
	}()
	var r io.Reader = conn
	if s.cfg.ReadTimeout > 0 {
		r = &deadlineReader{conn: conn, d: s.cfg.ReadTimeout}
	}
	sc := bufio.NewScanner(r)
	initial := 64 << 10
	if initial > s.cfg.MaxLineBytes {
		initial = s.cfg.MaxLineBytes
	}
	sc.Buffer(make([]byte, 0, initial), s.cfg.MaxLineBytes)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		msg, err := ParseMessage(line)
		if err != nil {
			s.count(func(st *ServerStats) { st.Malformed++ })
			s.log.Warn("malformed line", "peer", peer, "err", err.Error())
			s.replyError(conn, err.Error())
			continue
		}
		if owner, ok := s.disownedBy(msg.Client); ok {
			s.count(func(st *ServerStats) { st.Moved++ })
			s.log.Warn("client belongs to another shard", "peer", peer,
				"client", msg.Client, "owner", owner)
			s.replyMoved(conn, msg.Seq, msg.Client, owner)
			continue
		}
		if !seen[msg.Client] {
			seen[msg.Client] = true
			s.bindClient(msg.Client)
		}
		if s.alreadyAcked(msg.Client, msg.Seq) {
			s.count(func(st *ServerStats) { st.Duplicates++ })
			s.log.Debug("duplicate suppressed", "peer", peer, "client", msg.Client, "seq", msg.Seq)
			s.reply(conn, AckLine(msg.Seq, msg.Client))
			continue
		}
		item := ingestItem{msg: msg, raw: append([]byte(nil), line...), conn: conn}
		select {
		case s.queue <- item:
		default:
			s.count(func(st *ServerStats) { st.Overloaded++ })
			s.log.Warn("ingest queue full", "peer", peer, "depth", len(s.queue))
			s.nackRetry(conn, msg.Client, msg.Seq, "overloaded")
		}
	}
	switch err := sc.Err(); {
	case err == nil:
	case errors.Is(err, bufio.ErrTooLong):
		s.count(func(st *ServerStats) { st.Oversized++ })
		s.log.Warn("oversized line, dropping connection", "peer", peer, "limit", s.cfg.MaxLineBytes)
		s.replyError(conn, fmt.Sprintf("line exceeds %d bytes", s.cfg.MaxLineBytes))
	default:
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			s.count(func(st *ServerStats) { st.TimedOut++ })
			s.log.Warn("connection timed out", "peer", peer)
		}
	}
}

// nackRetry tells the client to back off and resubmit: the message was
// not accepted, but only because of transient pressure. The shed seq is
// recorded on the client's state so the applier cannot baseline a fresh
// ack window past the hole (see apply).
func (s *Server) nackRetry(conn net.Conn, client string, seq int64, reason string) {
	s.noteRetryNack(client, seq)
	s.reply(conn, NakLine(seq, client, reason, true))
}

// noteRetryNack remembers the lowest seq load-shed from a client with a
// retryable NACK, the guard the applier's baseline rule checks before
// trusting a first-seen seq.
func (s *Server) noteRetryNack(client string, seq int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.clientLocked(client, s.now())
	if st.retryLow == 0 || seq < st.retryLow {
		st.retryLow = seq
	}
}

// replyError answers a line that breaks the protocol with a permanent,
// unsequenced {"error":…}.
func (s *Server) replyError(conn net.Conn, reason string) {
	s.reply(conn, NakLine(0, "", reason, false))
}

// replyWriteTimeout bounds one reply write.
const replyWriteTimeout = 10 * time.Second

// reply writes one reply line under the write deadline, closing the
// connection on failure: acks flow through the single applier goroutine,
// so a peer that stops reading its replies (full TCP send buffer) must not
// head-of-line block every other client — it is cut off and re-syncs by
// resubmitting on reconnect.
func (s *Server) reply(conn net.Conn, line []byte) {
	//lint:ignore nosystime write deadline on a real TCP connection; wall clock never reaches simulation state
	if err := conn.SetWriteDeadline(time.Now().Add(replyWriteTimeout)); err != nil {
		// Without the deadline the Write below could block forever on a
		// stuck peer, which is exactly the head-of-line stall the deadline
		// exists to prevent — cut the connection instead.
		s.log.Warn("reply deadline failed, dropping connection",
			"peer", conn.RemoteAddr().String(), "err", err.Error())
		_ = conn.Close()
		return
	}
	if _, err := conn.Write(line); err != nil {
		s.log.Warn("reply write failed, dropping connection",
			"peer", conn.RemoteAddr().String(), "err", err.Error())
		_ = conn.Close() // the write error is already reported above
	}
}

// applier is the single goroutine that owns the WAL and the apply order:
// every accepted message becomes durable (per the fsync policy), then
// visible to Diagnose, then acknowledged — in exactly the order messages
// entered the queue, which is the order recovery replays.
func (s *Server) applier() {
	defer close(s.applierDone)
	for item := range s.queue {
		if s.cfg.testApplyGate != nil {
			<-s.cfg.testApplyGate
		}
		s.apply(item)
	}
}

func (s *Server) apply(item ingestItem) {
	msg := item.msg
	s.mu.Lock()
	var acked, retryLow int64
	if st := s.clients[msg.Client]; st != nil {
		acked, retryLow = st.acked, st.retryLow
	}
	s.mu.Unlock()
	switch {
	case msg.Seq <= acked:
		// A resubmission raced its original through the queue.
		s.count(func(st *ServerStats) { st.Duplicates++ })
		s.reply(item.conn, AckLine(msg.Seq, msg.Client))
		return
	case acked == 0 && (retryLow == 0 || msg.Seq <= retryLow):
		// No live highwater for this client: first contact, an ack
		// window evicted by AckTTL, or state lost to a non-durable
		// restart. Its seq counter is process-lifetime monotonic, so
		// demanding seq 1 would NACK its resubmissions forever; the
		// first seen seq becomes the new baseline instead. That is
		// only unsafe when a lower seq was already load-shed under
		// this state (retryLow) — then the hole must be filled first,
		// which the next case enforces.
	case msg.Seq != acked+1:
		// An earlier message from this client was NACKed (overload, a
		// failed WAL append) after this one was already queued.
		// Accepting it would advance the cumulative ack highwater past
		// that hole and the resubmission would be wrongly suppressed as
		// a duplicate — so the whole tail is bounced for resubmission.
		s.count(func(st *ServerStats) { st.Overloaded++ })
		s.nackRetry(item.conn, msg.Client, msg.Seq, "out of order")
		return
	}
	if s.wal != nil {
		if _, err := s.wal.Append(item.raw); err != nil {
			s.count(func(st *ServerStats) { st.WALErrors++ })
			s.log.Warn("WAL append failed", "err", err.Error())
			s.nackRetry(item.conn, msg.Client, msg.Seq, "wal append failed")
			return
		}
	}
	if err := s.land(sourcedFromMessage(msg)); err != nil {
		s.log.Warn("message rejected", "err", err.Error())
		// The nak tells the client to drop it rather than resubmit.
		s.reply(item.conn, NakLine(msg.Seq, msg.Client, err.Error(), false))
		return
	}
	s.bodySize.Add(int64(len(item.raw) + 1))
	s.reply(item.conn, AckLine(msg.Seq, msg.Client))
	s.maybeSnapshot()
}

// land makes one message visible and advances its client's highwater in
// one step. A permanent rejection (counted) still advances the highwater
// — the message is handled (dropped), and leaving a hole would wedge the
// client's stream on the contiguity check forever.
func (s *Server) land(sm wire.SourcedMessage) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.ingest(sm)
	if err != nil {
		s.stats.Rejected++
	}
	s.markAcked(sm.Client, sm.Seq)
	return err
}

// maybeSnapshot writes a snapshot and truncates the WAL once enough
// messages accumulated since the last one. Applier-only.
func (s *Server) maybeSnapshot() {
	if s.wal == nil || s.cfg.Durability.SnapshotEvery <= 0 {
		return
	}
	s.sinceSnap++
	if s.sinceSnap < s.cfg.Durability.SnapshotEvery {
		return
	}
	if err := s.snapshotNow(); err != nil {
		s.log.Warn("snapshot failed", "err", err.Error())
	}
}

// snapshotNow writes the retained stream and ack windows atomically and
// truncates the now-redundant WAL. Applier-only.
func (s *Server) snapshotNow() error {
	s.mu.Lock()
	snap := wire.Snapshot{Format: wire.SnapshotFormat, NextLSN: s.wal.nextLSN}
	snap.Messages, snap.Acked = s.bodyLocked()
	s.mu.Unlock()
	// An eighth over bodySize's estimate, so the buffer rarely regrows.
	b := wire.AppendSnapshot(make([]byte, 0, s.bodySize.Load()*9/8+512), &snap)
	s.bodySize.Store(int64(len(b)))
	if err := writeSnapshot(s.cfg.Durability.Dir, append(b, '\n')); err != nil {
		return err
	}
	s.snapshots.Add(1)
	if err := s.wal.Reset(); err != nil {
		return err
	}
	s.sinceSnap = 0
	s.log.Info("snapshot written", "messages", len(snap.Messages), "next_lsn", snap.NextLSN)
	return nil
}

// bodyLocked returns the server's whole state in the form a snapshot
// persists: the messages in ingest order and the per-client ack
// highwaters sorted by client. Callers hold s.mu; the
// messages alias the append-only stream (see Server.sourced).
func (s *Server) bodyLocked() ([]wire.SourcedMessage, []wire.ClientAck) {
	var acked []wire.ClientAck
	for id, st := range s.clients {
		if st.acked > 0 {
			acked = append(acked, wire.ClientAck{Client: id, Seq: st.acked})
		}
	}
	// The mapiterorder lint credits this sort.Slice with fixing the map
	// order above.
	sort.Slice(acked, func(i, j int) bool { return acked[i].Client < acked[j].Client })
	return s.sourced[:len(s.sourced):len(s.sourced)], acked
}

func (s *Server) count(f func(*ServerStats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

func (s *Server) alreadyAcked(client string, seq int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return seq <= s.clientAcked(client)
}

// clientLocked returns client's state, creating it on first sight.
// Callers hold s.mu.
func (s *Server) clientLocked(client string, now time.Time) *clientState {
	st := s.clients[client]
	if st == nil {
		st = &clientState{lastSeen: now}
		s.clients[client] = st
	}
	return st
}

// markAcked advances a client's ack highwater. Callers hold s.mu.
func (s *Server) markAcked(client string, seq int64) {
	st := s.clientLocked(client, s.now())
	if seq > st.acked {
		st.acked = seq
	}
	if st.retryLow != 0 && st.acked >= st.retryLow {
		st.retryLow = 0 // the shed message landed; the hole is filled
	}
	st.lastSeen = s.now()
}

// bindClient pins a client's state for the lifetime of a connection that
// submits under it, so it cannot be evicted mid-conversation.
func (s *Server) bindClient(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	st := s.clientLocked(key, now)
	st.conns++
	st.lastSeen = now
}

// releaseClients unpins a closing connection's clients and evicts any
// client that has been disconnected past the ack TTL.
func (s *Server) releaseClients(seen map[string]bool) {
	if len(seen) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	for key := range seen {
		if st := s.clients[key]; st != nil {
			st.conns--
			st.lastSeen = now
		}
	}
	s.evictIdle(now)
}

// evictIdle drops ack windows for clients with no live connection that
// have been idle past AckTTL. Callers hold s.mu.
func (s *Server) evictIdle(now time.Time) {
	if s.cfg.AckTTL < 0 {
		return
	}
	for id, st := range s.clients {
		if st.conns <= 0 && now.Sub(st.lastSeen) > s.cfg.AckTTL {
			delete(s.clients, id)
			s.stats.AckEvictions++
		}
	}
}

// ingest appends one message to the stream. Callers hold s.mu.
func (s *Server) ingest(sm wire.SourcedMessage) error {
	if err := checkPayload(sm); err != nil {
		return err
	}
	s.sourced = append(s.sourced, sm)
	return nil
}

// checkPayload refuses a message without the payload its type names.
// ParseMessage has validated everything that came over a connection or
// out of the WAL; a snapshot message arrives as a bare DTO.
func checkPayload(sm wire.SourcedMessage) error {
	switch {
	case sm.Type == TypeStep && sm.Step != nil:
	case sm.Type == TypeReport && sm.Report != nil:
	case sm.Type == TypeCF && sm.CF != nil:
	default:
		return fmt.Errorf("%q message without its payload", sm.Type)
	}
	return nil
}

// fold reduces the stream ingested so far, in ingest order, to the
// analyzer's input — the same fold a fleet merge ends with.
func (s *Server) fold() (*wire.Bundle, wire.MergeStats) {
	s.mu.Lock()
	msgs := s.sourced[:len(s.sourced):len(s.sourced)] // append-only: safe to read unlocked
	s.mu.Unlock()
	return wire.FoldMessages(msgs)
}

// Counts returns how many records/reports/collective flows have been
// ingested.
func (s *Server) Counts() (records, reports, cfs int) {
	_, stats := s.fold()
	return stats.Records, stats.Reports, stats.CFs
}

// Diagnose runs the analyzer over everything ingested so far.
func (s *Server) Diagnose() *diagnose.Diagnosis {
	bundle, _ := s.fold()
	return bundle.Analyze()
}
