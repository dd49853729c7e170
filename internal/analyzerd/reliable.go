package analyzerd

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"time"

	"vedrfolnir/internal/collective"
	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/telemetry"
	"vedrfolnir/internal/wire"
)

// ClientConfig tunes the reliable submission path.
type ClientConfig struct {
	// ID names this client in the server's per-client dedup state; every
	// host agent must use a distinct ID. Required.
	ID string
	// MaxAttempts bounds connection attempts per Flush (default 5).
	MaxAttempts int
	// BackoffBase is the first reconnect delay; it doubles per attempt up
	// to BackoffMax (defaults 10ms and 1s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// AckTimeout bounds one ack-read (default 10s): a server that stops
	// replying counts as a failed attempt instead of a hang.
	AckTimeout time.Duration
	// Sleep waits between reconnect attempts; tests inject a no-op to
	// avoid real delays. Nil uses time.Sleep.
	Sleep func(time.Duration)
	// MaxPending bounds the unacknowledged buffer: Send* returns
	// ErrQueueFull once this many messages await an ack, instead of
	// growing without bound while the analyzer is down. 0 uses the
	// default (4096); < 0 removes the bound.
	MaxPending int
}

// ErrQueueFull is returned by the Send methods when the unacknowledged
// buffer has reached ClientConfig.MaxPending. The caller should Flush (or
// shed load) before buffering more.
var ErrQueueFull = errors.New("analyzerd: client pending buffer full")

// ErrRedirected marks a Flush failure caused by shard-moved NACKs that are
// not a placement: a shard says another shard owns this client (a moved
// NAK with no address), or a connection the client was placed on places
// it again. Either means a misassembled fleet. The pending buffer is
// retained — nothing was lost — and the next Flush starts from the home
// address again. Test with errors.Is.
var ErrRedirected = errors.New("analyzerd: client's shard moved")

// ClientStats counts the reliability machinery's work. A placement is not
// counted as a retry: Placed counts it, and no other field does.
type ClientStats struct {
	// Reconnects counts re-dials after a connection failure.
	Reconnects int
	// Resubmitted counts messages sent again after a failure (the server
	// suppresses the ones it had already ingested).
	Resubmitted int
	// Rejected counts messages the server nak'd; they are dropped rather
	// than resubmitted forever.
	Rejected int
	// Backpressure counts retryable naks (overloaded / out of order /
	// WAL append failed); the nacked messages stay pending and are
	// resubmitted after backoff.
	Backpressure int
	// Redirected counts shard-moved naks that are not a placement: a
	// fleet shard refused the message because the shard map assigns this
	// client elsewhere, or a placed connection placed it again. The
	// messages stay pending; Flush surfaces ErrRedirected.
	Redirected int
	// Placed counts placements: the home address (a fleet router)
	// answered with moved NAKs naming the owning shard's address, and the
	// client dialed it and resubmitted everything pending there, with no
	// backoff and no attempt spent.
	Placed int
}

type pendingMsg struct {
	seq  int64
	line []byte
}

// ReliableClient is a host agent's at-least-once submission path: every
// message carries a per-client sequence number, Flush writes all buffered
// messages and waits for the server's acks, and a broken or stalled
// connection triggers reconnection with exponential backoff followed by
// resubmission of everything unacked. Combined with the server's dedup
// highwater this yields exactly-once ingestion across arbitrary connection
// failures. Not safe for concurrent use.
//
// The address a client is built with is its home. A fleet router at home
// answers with placement NAKs, and the client then talks to the owning
// shard directly until that connection fails; the next attempt goes home.
type ReliableClient struct {
	home   string // the address the client was built with
	addr   string // where conn goes: home, or the shard home placed it on
	placed bool   // addr is a placement, not home
	cfg    ClientConfig

	conn    net.Conn
	br      *bufio.Reader
	seq     int64
	pending []pendingMsg
	buf     []byte // encodes each line before its exact-size copy is kept

	// Stats counts reconnects, resubmissions, and rejections.
	Stats ClientStats
}

// NewReliableClient builds a client for the given analyzer address. No
// connection is made until the first Flush, so a client can buffer while
// the analyzer is still coming up.
func NewReliableClient(addr string, cfg ClientConfig) (*ReliableClient, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("analyzerd: ClientConfig.ID is required")
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 10 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = time.Second
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 10 * time.Second
	}
	if cfg.Sleep == nil {
		//lint:ignore nosystime reconnect backoff on a real network client; never runs inside the simulator
		cfg.Sleep = time.Sleep
	}
	if cfg.MaxPending == 0 {
		cfg.MaxPending = 4096
	}
	return &ReliableClient{home: addr, addr: addr, cfg: cfg}, nil
}

// Pending returns how many submitted messages await acknowledgement.
func (rc *ReliableClient) Pending() int { return len(rc.pending) }

func (rc *ReliableClient) enqueue(msg Message) error {
	if rc.cfg.MaxPending > 0 && len(rc.pending) >= rc.cfg.MaxPending {
		return fmt.Errorf("%w (%d unacked)", ErrQueueFull, len(rc.pending))
	}
	rc.seq++
	msg.Seq = rc.seq
	msg.Client = rc.cfg.ID
	rc.buf = append(wire.AppendMessage(rc.buf[:0], &msg), '\n')
	rc.pending = append(rc.pending, pendingMsg{seq: msg.Seq, line: bytes.Clone(rc.buf)})
	return nil
}

// SendStep buffers a step record for the next Flush.
func (rc *ReliableClient) SendStep(rec collective.StepRecord) error {
	dto := wire.FromStepRecord(rec)
	return rc.enqueue(Message{Type: TypeStep, Step: &dto})
}

// SendReport buffers a telemetry report for the next Flush.
func (rc *ReliableClient) SendReport(rep *telemetry.Report) error {
	dto := wire.FromReport(rep)
	return rc.enqueue(Message{Type: TypeReport, Report: &dto})
}

// SendCF buffers one collective-flow announcement for the next Flush.
func (rc *ReliableClient) SendCF(flow fabric.FlowKey) error {
	dto := wire.FromFlow(flow)
	return rc.enqueue(Message{Type: TypeCF, CF: &dto})
}

// Flush delivers every buffered message and waits for its ack, retrying
// through connection failures with exponential backoff. It returns nil
// once nothing is pending; after MaxAttempts failed attempts the pending
// buffer is retained so a later Flush (or Close) can try again. A
// connection kept from an earlier Flush may have been closed by the
// server meanwhile (a shard restarted, or idled it out); if the first
// attempt on it fails before reading any reply, the next attempt redials
// at once, without backing off.
//
// A placement read on the home connection is followed within the same
// attempt: the client dials the placed address and resubmits there. Any
// failure of a placed connection, ErrRedirected included, sends the next
// attempt home, so a home that keeps placing the client on a dead address
// spends one attempt per placement, with backoff, and never loops.
func (rc *ReliableClient) Flush() error {
	if len(rc.pending) == 0 {
		return nil
	}
	backoff := rc.cfg.BackoffBase
	stale := rc.conn != nil
	var lastErr error
	for attempt := 0; attempt < rc.cfg.MaxAttempts; attempt++ {
		if attempt > 0 && !stale {
			rc.cfg.Sleep(backoff)
			backoff *= 2
			if backoff > rc.cfg.BackoffMax {
				backoff = rc.cfg.BackoffMax
			}
		}
		replied, err := rc.attempt(attempt > 0)
		var p placement
		if errors.As(err, &p) {
			rc.Stats.Placed++
			_ = rc.dropConn() // home has said all it will; the shard is next
			rc.addr, rc.placed = string(p), true
			replied, err = rc.attempt(false)
		}
		if err == nil {
			return nil
		}
		lastErr = err
		stale = stale && attempt == 0 && !replied
		_ = rc.dropConn() // the attempt error is what matters; the conn is already broken
		rc.addr, rc.placed = rc.home, false
	}
	return fmt.Errorf("analyzerd: flush failed after %d attempts: %w",
		rc.cfg.MaxAttempts, lastErr)
}

// placement is the error with which an attempt on the home connection
// reports the address a router placed the client on.
type placement string

func (p placement) Error() string { return "placed on " + string(p) }

// attempt writes all pending messages on a (re)established connection and
// consumes ack/nak replies until the pending set drains or the connection
// errors. replied reports whether any reply was read.
func (rc *ReliableClient) attempt(isRetry bool) (replied bool, err error) {
	if rc.conn == nil {
		conn, err := net.Dial("tcp", rc.addr)
		if err != nil {
			return false, err
		}
		rc.conn = conn
		rc.br = bufio.NewReader(conn)
		if isRetry {
			rc.Stats.Reconnects++
		}
	}
	var buf bytes.Buffer
	for _, p := range rc.pending {
		buf.Write(p.line)
	}
	written := len(rc.pending)
	if isRetry {
		rc.Stats.Resubmitted += written
	}
	if _, err := rc.conn.Write(buf.Bytes()); err != nil {
		return false, err
	}
	// The server replies exactly once per submitted line, so read one
	// reply per written message — a retryable nak leaves its message
	// pending, and the server's contiguity check guarantees no later ack
	// can leapfrog it.
	busy, moved, placedAt := 0, 0, ""
	for i := 0; i < written && len(rc.pending) > 0; i++ {
		//lint:ignore nosystime ack-read deadline on a real TCP connection; wall clock never reaches simulation state
		if err := rc.conn.SetReadDeadline(time.Now().Add(rc.cfg.AckTimeout)); err != nil {
			return i > 0, err
		}
		line, err := rc.br.ReadBytes('\n')
		if err != nil {
			return i > 0, err
		}
		rep, err := wire.DecodeReply(line)
		if err != nil {
			return true, fmt.Errorf("bad reply %q: %w", line, err)
		}
		switch {
		case rep.Ack > 0:
			rc.dropThrough(rep.Ack, false)
		case rep.Moved && rep.Addr != "" && !rc.placed:
			// The router at home names the shard that owns this
			// client (moved replies are also retryable, so the moved
			// cases must precede Retry). The message stays pending
			// for the placed connection.
			placedAt = rep.Addr
		case rep.Moved:
			// Another shard owns this client, or a placed connection
			// placed it again: only a misassembled fleet sends either.
			// The message stays pending; the attempt ends in
			// ErrRedirected, so the misconfiguration is loud.
			moved++
			rc.Stats.Redirected++
		case rep.Retry:
			// Transient pressure (overloaded / out of order / WAL
			// append failed): the message stays pending for
			// resubmission after backoff.
			busy++
			rc.Stats.Backpressure++
		case rep.Nak > 0:
			rc.dropThrough(rep.Nak, true)
		default:
			// An un-sequenced error reply means the server could not even
			// parse our head-of-line message; resubmitting it would loop
			// forever, so drop it as rejected.
			rc.Stats.Rejected++
			rc.pending = rc.pending[1:]
		}
	}
	if len(rc.pending) > 0 {
		if placedAt != "" && moved == 0 {
			return true, placement(placedAt)
		}
		if moved > 0 {
			return true, fmt.Errorf("%w: %d shard-moved naks, %d still pending",
				ErrRedirected, moved, len(rc.pending))
		}
		return true, fmt.Errorf("server backpressure: %d retryable naks, %d still pending",
			busy, len(rc.pending))
	}
	return true, nil
}

// dropThrough removes every pending message with seq <= through (acks are
// cumulative: the server's highwater guarantees everything earlier was
// ingested or suppressed as a duplicate). rejected marks the boundary
// message as nak'd rather than delivered.
func (rc *ReliableClient) dropThrough(through int64, rejected bool) {
	kept := rc.pending[:0]
	for _, p := range rc.pending {
		if p.seq > through {
			kept = append(kept, p)
			continue
		}
		if rejected && p.seq == through {
			rc.Stats.Rejected++
		}
	}
	rc.pending = kept
}

func (rc *ReliableClient) dropConn() error {
	var err error
	if rc.conn != nil {
		err = rc.conn.Close()
		rc.conn = nil
		rc.br = nil
	}
	return err
}

// Close flushes any remaining messages and closes the connection. The
// flush error takes precedence — buffered records that never made it are
// a real loss the caller should know about — but a clean flush followed
// by a failed close is still reported rather than swallowed.
func (rc *ReliableClient) Close() error {
	err := rc.Flush()
	if cerr := rc.dropConn(); err == nil {
		err = cerr
	}
	return err
}
