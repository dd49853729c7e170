package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// handler is one client connection's relay loop. Gated lines collect in
// per-shard batches and go out — one write per shard — right before the
// handler blocks on its next client read, so a pipelined burst costs one
// shard write and a single message takes no detour.
type handler struct {
	r    *Router
	conn net.Conn
	// shards holds the connection to each shard this client connection
	// has sent to, by shard index; nil until first use.
	shards []*shardConn
	ended  atomic.Bool // a shard connection failed and ended conn
}

// Read flushes the batches, then reads from the client: bufio.Scanner
// only calls it when it has no complete line left to hand out.
func (h *handler) Read(p []byte) (int, error) {
	h.flush()
	return h.conn.Read(p)
}

func (h *handler) flush() {
	for _, s := range h.shards {
		if s != nil && s.lines > 0 {
			s.send()
		}
	}
}

// add appends one gated line to the batch bound for shard.
func (h *handler) add(shard int, line []byte) {
	s := h.shards[shard]
	if s == nil {
		s = h.connect(shard)
		h.shards[shard] = s
	}
	s.buf = append(append(s.buf, line...), '\n')
	s.lines++
}

// connect dials shard on the client connection's first line for it and
// starts the reader. A failed dial ends the client connection and leaves
// a dead shardConn that releases whatever is sent on it.
func (h *handler) connect(shard int) *shardConn {
	r := h.r
	conn, err := r.dial(shard)
	if err != nil {
		h.end(shard, err)
		return &shardConn{h: h, shard: shard, dead: true}
	}
	s := &shardConn{h: h, shard: shard, conn: conn}
	r.mu.Lock()
	r.links[s] = true
	r.mu.Unlock()
	r.readers.Add(1)
	go s.read()
	return s
}

// end closes the client connection because one of its shard connections
// failed. The reliable client reconnects and resubmits everything
// unacked, in seq order, so no line can overtake one that was lost, and
// a shard with no highwater for the client baselines on the right seq.
func (h *handler) end(shard int, err error) {
	if !h.ended.CompareAndSwap(false, true) {
		return
	}
	h.r.shardDown.Add(1)
	h.r.cfg.Log.Warn("shard unreachable; ending its client connection", "shard", shard, "err", err)
	_ = h.conn.Close() // the handler's read fails and the loop ends
}

// release runs when the client connection's read loop has ended. A shard
// connection that owes nothing closes now; one that still owes replies
// stays open until its reader has relayed the last of them, so that
// Stop's wait sees every forwarded line answered.
func (h *handler) release() {
	for _, s := range h.shards {
		if s == nil || s.conn == nil {
			continue
		}
		s.mu.Lock()
		s.closing = true
		idle := s.owed == 0
		s.mu.Unlock()
		if idle {
			_ = s.conn.Close() // the reader exits on the closed socket
		}
	}
}

// shardConn is one client connection's connection to one shard, dialed
// when the client first sends a line that shard owns. The handler writes
// batches on it without waiting; one reader goroutine relays every reply
// verbatim to the client connection, since nothing else is written on it.
// Any failure — the dial, a write, a read, a shard silent with replies
// owed — ends the client connection.
type shardConn struct {
	h     *handler
	shard int
	conn  net.Conn // nil when the dial failed
	// buf holds the lines gated since the last send, each with its
	// newline, and lines counts them. Handler-only.
	buf   []byte
	lines int

	mu sync.Mutex
	// owed counts lines written whose reply has not been relayed; whoever
	// sets dead releases them from the router's inflight count, and a
	// batch sent after that releases its own.
	owed    int64 // guarded by mu
	dead    bool  // guarded by mu
	closing bool  // guarded by mu: the client connection's read loop has ended
}

// send writes the batch in one write.
func (s *shardConn) send() {
	r := s.h.r
	batch, n := s.buf, int64(s.lines)
	s.buf, s.lines = s.buf[:0], 0 // reused once the write below returns
	s.mu.Lock()
	dead := s.dead
	if !dead {
		s.owed += n // before the write: the reply may be read before Write returns
	}
	s.mu.Unlock()
	if dead {
		r.inflight.Add(-n)
		return
	}
	r.batchLines.Observe(n)
	//lint:ignore nosystime write deadline on a real TCP connection to a shard daemon
	err := s.conn.SetWriteDeadline(time.Now().Add(replyTimeout))
	if err == nil {
		_, err = s.conn.Write(batch)
	}
	if err != nil {
		s.h.end(s.shard, err)
		_ = s.conn.Close() // the reader sees it and releases what is owed
	}
}

// read is the shard connection's reader goroutine: it counts each pass's
// complete reply lines and relays them to the client connection in one
// write, until the connection ends. It never decodes a reply.
func (s *shardConn) read() {
	r := s.h.r
	defer r.readers.Done()
	lr := lineReader{buf: make([]byte, 4<<10)}
	stalled := false
	for {
		start, n := lr.r, int64(0)
		for lr.next() != nil {
			n++
		}
		if n > 0 {
			r.answered[s.shard].Add(n)
			if r.cfg.testAnswered != nil {
				r.cfg.testAnswered(r.Stats().Forwarded)
			}
			// A pass the client connection could not take still counts
			// (Stop closed it for a drain) unless a shard failure had
			// ended that connection: the client resubmits those lines,
			// and their second answer is the one relayed and counted.
			if !r.write(s.h.conn, lr.buf[start:lr.r]) && s.h.ended.Load() {
				r.answered[s.shard].Add(-n)
			}
			r.inflight.Add(-n)
			s.mu.Lock()
			s.owed -= n
			done := s.closing && s.owed == 0
			s.mu.Unlock()
			if done {
				s.finish(nil)
				return
			}
		}
		//lint:ignore nosystime read deadline on a real TCP connection to a shard daemon
		err := s.conn.SetReadDeadline(time.Now().Add(replyTimeout))
		if err == nil {
			err = lr.fill(s.conn)
		}
		var nerr net.Error
		switch {
		case err == nil:
			stalled = false
			continue
		case errors.As(err, &nerr) && nerr.Timeout():
			// An idle connection parks again; one that owes replies
			// fails once a whole replyTimeout has passed without a byte.
			s.mu.Lock()
			owed := s.owed > 0
			s.mu.Unlock()
			if !owed || !stalled {
				stalled = owed
				continue
			}
			err = fmt.Errorf("no reply within %v", replyTimeout)
		}
		s.finish(err)
		return
	}
}

// finish retires the shard connection: what it still owes is released
// from inflight, and a failure ends the client connection unless that
// had already ended on its own.
func (s *shardConn) finish(err error) {
	r := s.h.r
	_ = s.conn.Close() // done with, or already dead
	s.mu.Lock()
	s.dead = true
	owed, closing := s.owed, s.closing
	s.owed = 0
	s.mu.Unlock()
	r.inflight.Add(-owed)
	r.mu.Lock()
	delete(r.links, s)
	r.mu.Unlock()
	if err != nil && !closing {
		s.h.end(s.shard, err)
	}
}

// lineReader frames a shard's reply stream. Unlike bufio.Reader it keeps
// a partial line across a read that timed out, so the reader can park
// under a deadline without losing bytes, and it hands out the lines of
// one pass contiguously, so they are relayed in one write.
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

// fill reads more bytes, compacting and growing the buffer (up to
// maxLineBytes for one line) as needed.
func (lr *lineReader) fill(conn net.Conn) error {
	if lr.r > 0 {
		lr.w = copy(lr.buf, lr.buf[lr.r:lr.w])
		lr.r = 0
	}
	if lr.w == len(lr.buf) {
		if len(lr.buf) >= maxLineBytes {
			return fmt.Errorf("shard reply exceeds %d bytes", maxLineBytes)
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
