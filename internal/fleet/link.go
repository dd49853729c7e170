package fleet

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"time"

	"vedrfolnir/internal/obs"
	"vedrfolnir/internal/wire"
)

// flight is one client line between passing the router's gate and the
// relay of its reply: in a handler's batch first, then in its link's
// in-flight table until the shard answers or the connection dies.
type flight struct {
	client string
	seq    int64
	typ    string
	// line is the client's line plus its newline — the one copy the
	// router makes per message, kept so a failed write can be retried.
	line []byte
	// out is the client connection the reply is relayed to.
	out net.Conn
	// sent is when the line was written to the shard (the ReplyTimeout
	// reference); begun the latency timer's reading of the same moment.
	sent  time.Time
	begun int64
	// prev/next thread the link's in-flight list, oldest first; dup
	// chains a later in-flight line with the same (client, seq) — a
	// resubmission racing its original.
	prev, next, dup *flight
}

// flightKey is what a shard's reply names: replies on a link are not
// FIFO (the shard's connection handler writes duplicate-acks and NAKs,
// its applier the acks), so the reader matches them by client and seq.
type flightKey struct {
	client string
	seq    int64
}

// shardLink is the router's connection pair to one shard. Ingest is
// pipelined over conn: handlers register their lines in the in-flight
// table and write them without waiting, and one reader goroutine per
// connection completes the entries as replies arrive, relaying each to
// the client connection it came from. Every entry in the table was
// written on the current conn; when that connection dies, all of them
// are failed with a retryable NAK — exactly one reply per forwarded
// line. The dump exchange answers without a (client, seq) to match on,
// so it runs stop-and-wait on a connection of its own.
type shardLink struct {
	r     *Router
	shard int

	mu         sync.Mutex
	addr       string                // guarded by mu
	conn       net.Conn              // guarded by mu
	table      map[flightKey]*flight // guarded by mu
	head, tail *flight               // guarded by mu

	amu       sync.Mutex
	adminConn net.Conn      // guarded by amu
	adminBR   *bufio.Reader // guarded by amu
	adminAddr string        // guarded by amu

	// forwarded counts lines this shard answered; replyTime is their
	// forward→reply latency. Both nil (no-ops) without a registry.
	forwarded *obs.Counter
	replyTime *obs.Timer
}

func (r *Router) newLink(shard int, addr string) *shardLink {
	l := &shardLink{r: r, shard: shard, addr: addr, table: map[flightKey]*flight{}}
	if reg := r.cfg.Metrics; reg != nil {
		l.forwarded = reg.Counter(fmt.Sprintf("vedr_router_shard_forwarded_%d", shard),
			"messages relayed to this shard")
		l.replyTime = obs.NewTimer(reg.Histogram(fmt.Sprintf("vedr_router_shard_reply_ns_%d", shard),
			"wall time from forwarding a line to this shard to its reply (ns)", obs.WallBuckets()), r.sinceStart)
	}
	return l
}

// setAddr re-points the link; a changed address drops the ingest
// connection (its in-flight lines are NAK'd retryably) and the next
// admin exchange redials.
func (l *shardLink) setAddr(addr string) {
	l.mu.Lock()
	if l.addr == addr {
		l.mu.Unlock()
		return
	}
	l.addr = addr
	dead := l.dropLocked(l.conn)
	l.mu.Unlock()
	l.r.failAll(dead, l.shard)
}

// close drops both connections; the reader goroutine exits on the closed
// socket.
func (l *shardLink) close() {
	l.mu.Lock()
	dead := l.dropLocked(l.conn)
	l.mu.Unlock()
	l.r.failAll(dead, l.shard)
	l.amu.Lock()
	l.dropAdmin()
	l.amu.Unlock()
}

// connLocked returns the ingest connection, dialing it (and starting its
// reader) when there is none. Callers hold l.mu.
func (l *shardLink) connLocked() (net.Conn, error) {
	if l.conn != nil {
		return l.conn, nil
	}
	if l.addr == "" {
		return nil, fmt.Errorf("shard %d has not announced an address", l.shard)
	}
	conn, err := net.DialTimeout("tcp", l.addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	l.conn = conn
	l.r.readers.Add(1)
	go l.read(conn)
	return conn, nil
}

// dropLocked retires conn if it is still the link's ingest connection and
// returns the in-flight lines that were written on it, in (client, seq)
// order, with each client's bounce guard armed: whoever gets a non-nil
// result owns answering them. A conn that is already retired (someone
// else saw it die first) yields nil. Callers hold l.mu.
func (l *shardLink) dropLocked(conn net.Conn) []*flight {
	if conn == nil || l.conn != conn {
		return nil
	}
	_ = conn.Close() // dead or being replaced; the reader exits on the closed socket
	l.conn = nil
	var dead []*flight
	for f := l.head; f != nil; f = f.next {
		dead = append(dead, f)
	}
	clear(l.table)
	l.head, l.tail = nil, nil
	slices.SortStableFunc(dead, func(a, b *flight) int {
		if c := strings.Compare(a.client, b.client); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	for _, f := range dead {
		l.r.noteBounce(f.client, f.seq)
	}
	return dead
}

// putLocked appends f to the in-flight table. Callers hold l.mu.
func (l *shardLink) putLocked(f *flight) {
	key := flightKey{f.client, f.seq}
	if first := l.table[key]; first != nil {
		for first.dup != nil {
			first = first.dup
		}
		first.dup = f
	} else {
		l.table[key] = f
	}
	f.prev, f.next, f.dup = l.tail, nil, nil // a retried line comes with stale links
	if l.tail != nil {
		l.tail.next = f
	} else {
		l.head = f
	}
	l.tail = f
}

// takeLocked removes and returns the oldest in-flight line a reply for
// key answers, or nil. Callers hold l.mu.
func (l *shardLink) takeLocked(key flightKey) *flight {
	f := l.table[key]
	if f == nil {
		return nil
	}
	if f.dup != nil {
		l.table[key] = f.dup
	} else {
		delete(l.table, key)
	}
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		l.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		l.tail = f.prev
	}
	return f
}

// forward sends a batch of gated lines (one client connection's, in the
// order it sent them) to the shard in one write and returns without
// waiting: the link's reader relays each reply as it arrives. Every line
// gets exactly one answer — a relayed shard reply, or a retryable NAK
// from here (bounce guard, shard unreachable) or from whoever retires the
// connection it was written on. A write error retries once on a fresh
// dial, with what the failed connection had not already answered.
func (l *shardLink) forward(batch []*flight) {
	r := l.r
	for attempt := 0; len(batch) > 0; attempt++ {
		conn, admitted := l.register(batch)
		if conn == nil {
			return // register answered whatever it did not put in flight
		}
		r.batchLines.Observe(int64(len(admitted)))
		err := conn.SetWriteDeadline(admitted[0].sent.Add(r.cfg.ReplyTimeout))
		if err == nil {
			err = writeLines(conn, admitted)
		}
		if err == nil {
			return
		}
		// The write failed: retire the connection. Lines of this batch
		// still in the table are ours to retry; everything else that was
		// in flight on it is NAK'd, as is the batch on a second failure.
		l.mu.Lock()
		dead := l.dropLocked(conn)
		l.mu.Unlock()
		var retry, lost []*flight
		for _, f := range dead {
			if attempt == 0 && slices.Contains(admitted, f) {
				retry = append(retry, f)
			} else {
				lost = append(lost, f)
			}
		}
		r.cfg.Log.Warn("shard link write failed", "shard", l.shard, "err", err, "retrying", len(retry))
		r.failAll(lost, l.shard)
		batch = retry
	}
}

// writeLines writes the batch's lines in one syscall.
func writeLines(conn net.Conn, batch []*flight) error {
	if len(batch) == 1 {
		_, err := conn.Write(batch[0].line)
		return err
	}
	bufs := make(net.Buffers, len(batch))
	for i, f := range batch {
		bufs[i] = f.line
	}
	_, err := bufs.WriteTo(conn) // writev on a TCP connection
	return err
}

// register passes batch through the bounce guards and puts what may go
// into the in-flight table of the link's connection (dialed if there is
// none), all under the link mutex so a line registered after a link death
// sees the guards that death armed. It answers the lines it turns away,
// and all of them when the shard cannot be reached; conn is nil when
// nothing is left to write.
func (l *shardLink) register(batch []*flight) (conn net.Conn, admitted []*flight) {
	r := l.r
	//lint:ignore nosystime the ReplyTimeout reference for socket deadlines on a real TCP link
	sent := time.Now()
	begun := l.replyTime.Begin()
	l.mu.Lock()
	admitted, late := r.admit(batch)
	var err error
	if len(admitted) > 0 {
		conn, err = l.connLocked()
	}
	for _, f := range admitted {
		if err != nil {
			r.noteBounce(f.client, f.seq)
		} else {
			f.sent, f.begun = sent, begun
			l.putLocked(f)
		}
	}
	l.mu.Unlock()
	for _, f := range late {
		r.count(func(s *RouterStats) { s.OutOfOrder++ })
		r.fail(f, "out of order")
	}
	if err != nil {
		r.cfg.Log.Warn("shard unreachable", "shard", l.shard, "err", err)
		r.failAll(admitted, l.shard)
	}
	return conn, admitted
}

// read is the link's reader goroutine for one ingest connection: it
// completes in-flight lines as their replies arrive and, when the
// connection ends (shard death, Close, SetShardAddr, ReplyTimeout on the
// oldest line), fails whatever is still in flight on it.
func (l *shardLink) read(conn net.Conn) {
	defer l.r.readers.Done()
	lr := lineReader{buf: make([]byte, 4<<10)}
	var out relays
	for {
		for line := lr.next(); line != nil; line = lr.next() {
			l.deliver(line, &out)
		}
		// Everything buffered is relayed in one write per client
		// connection before the reader parks.
		out.flush(l.r)
		if err := l.await(conn, &lr); err != nil {
			l.mu.Lock()
			dead := l.dropLocked(conn)
			l.mu.Unlock()
			if len(dead) > 0 {
				l.r.cfg.Log.Warn("shard link lost", "shard", l.shard, "in_flight", len(dead), "err", err)
			}
			l.r.failAll(dead, l.shard)
			return
		}
	}
}

// await blocks until the connection has delivered more bytes, for at
// most ReplyTimeout past the moment the oldest in-flight line was written
// (an idle link wakes once per ReplyTimeout and parks again, which also
// picks up a line registered while it slept).
func (l *shardLink) await(conn net.Conn, lr *lineReader) error {
	timeout := l.r.cfg.ReplyTimeout
	for {
		//lint:ignore nosystime socket deadline on a real TCP link to a shard daemon
		now := time.Now()
		oldest := now
		l.mu.Lock()
		if l.conn == conn && l.head != nil {
			oldest = l.head.sent
		}
		l.mu.Unlock()
		if now.Sub(oldest) >= timeout {
			return fmt.Errorf("no reply within %v", timeout)
		}
		if err := conn.SetReadDeadline(oldest.Add(timeout)); err != nil {
			return err
		}
		err := lr.fill(conn, maxLineBytes)
		var nerr net.Error
		if err == nil || !errors.As(err, &nerr) || !nerr.Timeout() {
			return err
		}
	}
}

// deliver handles one reply line: match it to its in-flight line, account
// for it, and stage it for relay. A moved NAK is relayed like any other:
// the router and every shard share one map, so only a misassembled fleet
// produces one, and the client must see it.
func (l *shardLink) deliver(line []byte, out *relays) {
	r := l.r
	rep, err := wire.DecodeShardReply(line)
	if err != nil {
		r.cfg.Log.Warn("undecodable shard reply", "shard", l.shard, "err", err)
		return
	}
	seq := rep.Ack
	if seq == 0 {
		seq = rep.Nak
	}
	l.mu.Lock()
	f := l.takeLocked(flightKey{rep.Client, seq})
	l.mu.Unlock()
	if f == nil {
		// Every forwarded line is answered once with its (client, seq),
		// so this is a reply that was already buffered when its
		// connection was retired — its line has been NAK'd.
		r.cfg.Log.Debug("shard reply matches nothing in flight", "shard", l.shard, "reply", string(bytes.TrimSpace(line)))
		return
	}
	l.replyTime.End(f.begun)
	r.count(func(s *RouterStats) { s.Forwarded++ })
	l.forwarded.Inc()
	if rep.Ack > 0 {
		r.noteAck(f.client, rep.Ack)
	}
	out.add(f.out, line)
}

// roundTrip runs one stop-and-wait dump exchange on the link's admin
// connection: line, newline included, goes out and the single-line reply
// comes back. A dead cached connection (the shard restarted, or moved,
// since the last exchange) gets one redial; a dump is idempotent, so a
// request that landed in a void is safe to repeat.
func (l *shardLink) roundTrip(line []byte) ([]byte, error) {
	l.amu.Lock()
	defer l.amu.Unlock()
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		l.mu.Lock()
		addr := l.addr
		l.mu.Unlock()
		if l.adminAddr != addr {
			l.dropAdmin()
		}
		if l.adminConn == nil {
			if addr == "" {
				return nil, fmt.Errorf("shard %d has not announced an address", l.shard)
			}
			conn, err := net.DialTimeout("tcp", addr, dialTimeout)
			if err != nil {
				return nil, err
			}
			l.adminConn, l.adminBR, l.adminAddr = conn, bufio.NewReader(conn), addr
		}
		//lint:ignore nosystime bounding a real TCP round trip to a shard daemon
		err := l.adminConn.SetDeadline(time.Now().Add(l.r.cfg.ReplyTimeout))
		if err == nil {
			_, err = l.adminConn.Write(line)
		}
		var rep []byte
		if err == nil {
			rep, err = l.adminBR.ReadBytes('\n')
		}
		if err == nil {
			return rep, nil
		}
		lastErr = err
		l.dropAdmin()
	}
	return nil, lastErr
}

// dropAdmin discards the admin connection (caller holds l.amu).
func (l *shardLink) dropAdmin() {
	if l.adminConn != nil {
		_ = l.adminConn.Close() // broken or stale; the redial is what matters
		l.adminConn, l.adminBR, l.adminAddr = nil, nil, ""
	}
}

// lineReader frames a shard's reply stream. Unlike bufio.Reader it keeps
// a partial line across a read that timed out, so the reader can park
// under a deadline without losing bytes.
type lineReader struct {
	buf  []byte
	r, w int
}

// next returns the next complete buffered line, newline included, or nil.
// The slice is valid until the next fill.
func (lr *lineReader) next() []byte {
	i := bytes.IndexByte(lr.buf[lr.r:lr.w], '\n')
	if i < 0 {
		return nil
	}
	line := lr.buf[lr.r : lr.r+i+1]
	lr.r += i + 1
	return line
}

// fill reads more bytes, compacting and growing the buffer (up to max
// for one line) as needed.
func (lr *lineReader) fill(conn net.Conn, max int) error {
	if lr.r > 0 {
		lr.w = copy(lr.buf, lr.buf[lr.r:lr.w])
		lr.r = 0
	}
	if lr.w == len(lr.buf) {
		if len(lr.buf) >= max {
			return fmt.Errorf("shard reply exceeds %d bytes", max)
		}
		lr.buf = append(lr.buf, make([]byte, len(lr.buf))...)
	}
	n, err := conn.Read(lr.buf[lr.w:])
	lr.w += n
	if n > 0 {
		return nil // a trailing error resurfaces on the next read
	}
	return err
}

// relays stages the replies one pass of the reader decoded, per client
// connection, so each connection gets them in a single write.
type relays []relay

type relay struct {
	out net.Conn
	buf []byte
	n   int
}

func (rs *relays) add(out net.Conn, line []byte) {
	for i := range *rs {
		if e := &(*rs)[i]; e.out == out {
			e.buf = append(e.buf, line...)
			e.n++
			return
		}
	}
	if len(*rs) < cap(*rs) {
		*rs = (*rs)[:len(*rs)+1] // reuse a flushed entry's buffer
	} else {
		*rs = append(*rs, relay{})
	}
	e := &(*rs)[len(*rs)-1]
	e.out, e.buf, e.n = out, append(e.buf[:0], line...), 1
}

// flush relays what was staged and releases the lines from the router's
// in-flight count.
func (rs *relays) flush(r *Router) {
	for i := range *rs {
		e := &(*rs)[i]
		r.write(e.out, e.buf)
		r.inflight.Add(int64(-e.n))
		e.out = nil
	}
	*rs = (*rs)[:0]
}
