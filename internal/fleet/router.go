package fleet

import (
	"bufio"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"vedrfolnir/internal/analyzerd"
	"vedrfolnir/internal/obs"
	"vedrfolnir/internal/wire"
)

// RouterConfig tunes the fleet's placement tier.
type RouterConfig struct {
	// Map is the fleet-wide consistent-hash shard map; it must match the
	// ShardConfig of every shard daemon. Required, and fixed for the
	// router's lifetime.
	Map wire.ShardMap
	// Log receives routing warnings; nil discards. Metrics, when set,
	// publishes the router counters (including each shard's count of
	// placed lines).
	Log     *slog.Logger
	Metrics *obs.Registry

	// reap, set by Start, is Fleet.reap, which DumpShard calls.
	reap func(i int) (*wire.ShardState, error)
}

const (
	// replyTimeout bounds one write to a client.
	replyTimeout = 10 * time.Second
	// maxLineBytes caps one protocol line.
	maxLineBytes = 16 << 20
)

// RouterStats counts the router's work. Cheap snapshot via Stats().
type RouterStats struct {
	// Rejected counts lines the router refused outright: any line
	// analyzerd.ParseMessage refuses (malformed, unnamed, unsequenced,
	// of an unknown type).
	Rejected int64
	// ShardDown counts client connections ended because the owning shard
	// had not announced an address; the reliable client reconnects and
	// resubmits, so these are delays, not losses.
	ShardDown int64
	// TenantLimited and Quiesced are always 0: the per-tenant quota gate
	// and the rebalance fence that counted here are gone. The fields stay
	// only because the frozen benchmark/ reads both; ROADMAP item 10 drops
	// them with its other shims.
	TenantLimited int64
	Quiesced      int64
}

// ShardTally is the router's account of one shard: the lines it placed on
// that shard, each answered with a placement NAK. No drain reads it (a
// drain rebuilds every shard from its directory); it feeds only the
// benchmark's fleet.shard_skew.
type ShardTally struct {
	Placed int
}

// Total returns the tally's count.
func (t ShardTally) Total() int { return t.Placed }

// Router is the fleet's one client-facing address. It relays nothing: it
// runs analyzerd.ParseMessage on every line, so it refuses exactly the
// lines a shard would, with the same {"error":…}, and answers every line
// it accepts with a placement, a retryable moved NAK naming the address
// of the shard that owns the line's client on the consistent-hash ring.
// The reliable client then talks to that shard directly. A placement
// address is the host the client reached the router on, joined with the
// shard's announced port, so a client that can reach the router can reach
// its shard. A line for a shard that has not announced ends the
// connection instead. The map and its ring are fixed at StartRouter.
type Router struct {
	cfg  RouterConfig
	ln   net.Listener
	ring *wire.HashRing

	// placed counts, per shard, the lines answered with a placement on
	// it: the one count behind Tallies and /metrics.
	placed    []atomic.Int64
	rejected  atomic.Int64
	shardDown atomic.Int64

	mu      sync.Mutex
	ports   []string          // guarded by mu: each shard's announced port, "" before
	conns   map[net.Conn]bool // guarded by mu
	stopped bool              // guarded by mu
	wg      sync.WaitGroup
}

// StartRouter binds the router and begins accepting clients.
func StartRouter(addr string, cfg RouterConfig) (*Router, error) {
	ring, err := wire.NewHashRing(cfg.Map)
	if err != nil {
		return nil, fmt.Errorf("fleet: router: %w", err)
	}
	if cfg.Log == nil {
		cfg.Log = obs.NopLogger()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fleet: router: %w", err)
	}
	r := &Router{
		cfg:    cfg,
		ring:   ring,
		ln:     ln,
		placed: make([]atomic.Int64, cfg.Map.Shards),
		ports:  make([]string, cfg.Map.Shards),
		conns:  map[net.Conn]bool{},
	}
	r.publishStats()
	r.wg.Add(1)
	go r.acceptLoop()
	return r, nil
}

func (r *Router) publishStats() {
	reg := r.cfg.Metrics
	if reg == nil {
		return
	}
	reg.GaugeFunc("vedr_router_rejected_total", "lines the router refused (malformed/unnamed/unsequenced)",
		func() int64 { return r.Stats().Rejected })
	reg.GaugeFunc("vedr_router_shard_down_total", "client connections ended for a shard with no address",
		func() int64 { return r.Stats().ShardDown })
	for i := range r.placed {
		reg.GaugeFunc(fmt.Sprintf("vedr_router_shard_placed_%d", i), "lines answered with a placement on this shard",
			func() int64 { return r.placed[i].Load() })
	}
}

// Addr returns the router's listen address.
func (r *Router) Addr() string { return r.ln.Addr().String() }

// SetShardAddr records shard i's address, the one way the router learns
// it: every shard starts unknown (a client of a not-yet-announced shard
// has its connection ended), and a supervisor sets it on each announce.
// Only the port is kept; placements from now on name it.
func (r *Router) SetShardAddr(i int, addr string) {
	if i < 0 || i >= r.cfg.Map.Shards {
		return
	}
	_, port, err := net.SplitHostPort(addr)
	if err != nil {
		r.cfg.Log.Warn("shard announced an address with no port", "shard", i, "addr", addr)
		return
	}
	r.mu.Lock()
	r.ports[i] = port
	r.mu.Unlock()
}

// port returns shard i's announced port, "" before its first announce.
func (r *Router) port(i int) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ports[i]
}

// Stats snapshots the router counters.
func (r *Router) Stats() RouterStats {
	return RouterStats{Rejected: r.rejected.Load(), ShardDown: r.shardDown.Load()}
}

// Tallies snapshots each shard's count of placed lines.
func (r *Router) Tallies() []ShardTally {
	out := make([]ShardTally, len(r.placed))
	for i := range r.placed {
		out[i].Placed = int(r.placed[i].Load())
	}
	return out
}

// Stop closes the listener and every client connection and waits for the
// handlers to finish. Clients already placed keep talking to their shards
// until those stop.
func (r *Router) Stop() {
	r.mu.Lock()
	if !r.stopped {
		r.stopped = true
		for conn := range r.conns {
			_ = conn.Close() // unblocks the handler reads
		}
		_ = r.ln.Close() // unblocks Accept
	}
	r.mu.Unlock()
	r.wg.Wait()
}

func (r *Router) acceptLoop() {
	defer r.wg.Done()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return
		}
		r.mu.Lock()
		if r.stopped {
			r.mu.Unlock()
			_ = conn.Close() // raced shutdown; nothing to serve
			return
		}
		r.conns[conn] = true
		r.wg.Add(1)
		r.mu.Unlock()
		go r.handle(conn)
	}
}

func (r *Router) forget(conn net.Conn) {
	r.mu.Lock()
	delete(r.conns, conn)
	r.mu.Unlock()
	_ = conn.Close() // either side may already have closed it
}

// session is one client connection. Replies collect in out and go out in
// one write right before the handler blocks on its next client read, so a
// pipelined batch is answered in one write.
type session struct {
	conn net.Conn
	out  []byte
}

// Read flushes the replies, then reads from the client: bufio.Scanner
// only calls it when it has no complete line left to hand out.
func (s *session) Read(p []byte) (int, error) {
	if err := s.flush(); err != nil {
		return 0, err // a peer that cannot take its replies is cut off
	}
	return s.conn.Read(p)
}

// flush writes the collected replies under a write deadline.
func (s *session) flush() error {
	if len(s.out) == 0 {
		return nil
	}
	//lint:ignore nosystime write deadline on a real TCP client connection
	err := s.conn.SetWriteDeadline(time.Now().Add(replyTimeout))
	if err == nil {
		_, err = s.conn.Write(s.out)
	}
	s.out = s.out[:0]
	return err
}

// place appends the placement of client's submission seq on shard owner,
// listening at addr.
func (s *session) place(seq int64, client string, owner int, m *wire.ShardMap, addr string) {
	s.out = append(wire.AppendReply(s.out, &wire.ReplyLine{
		Nak: seq, Client: client, Moved: true, Owner: &owner, Map: m, Addr: addr,
		Error: fmt.Sprintf("client %q is placed on shard %d at %s", client, owner, addr), Retry: true,
	}), '\n')
}

// handle answers one client connection line by line.
func (r *Router) handle(conn net.Conn) {
	defer r.wg.Done()
	defer r.forget(conn)
	// A placement names the host the client reached the router on.
	host, _, err := net.SplitHostPort(conn.LocalAddr().String())
	if err != nil {
		return
	}
	s := &session{conn: conn}
	// The replies to the lines since the last read; a failure needs no
	// handling, as the connection is ending anyway.
	defer func() { _ = s.flush() }()
	sc := bufio.NewScanner(s)
	sc.Buffer(make([]byte, 0, 64<<10), maxLineBytes)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		// ParseMessage, not a header scan: it is the whole ingest
		// contract, so the router refuses exactly the lines a shard
		// would, with the same {"error":…}, and never places a line
		// without the client it is placed by.
		msg, err := analyzerd.ParseMessage(line)
		if err != nil {
			r.rejected.Add(1)
			s.out = append(s.out, analyzerd.NakLine(0, "", err.Error(), false)...)
			continue
		}
		owner := r.ring.Owner(msg.Client)
		port := r.port(owner)
		if port == "" {
			r.shardDown.Add(1)
			r.cfg.Log.Warn("shard has not announced; ending its client connection", "shard", owner)
			return
		}
		r.placed[owner].Add(1)
		s.place(msg.Seq, msg.Client, owner, &r.cfg.Map, net.JoinHostPort(host, port))
	}
}

// DumpShard reaps shard i and rebuilds its state from its directory, by
// Fleet.Drain's one path; a router Start did not make returns an error.
// It exists only because the frozen benchmark/ times a drain shard by
// shard through it; ROADMAP item 10 deletes it.
func (r *Router) DumpShard(i int) (*wire.ShardState, error) {
	if r.cfg.reap == nil {
		return nil, fmt.Errorf("fleet: DumpShard needs a router made by fleet.Start")
	}
	if i < 0 || i >= r.cfg.Map.Shards {
		return nil, fmt.Errorf("fleet: no shard %d", i)
	}
	return r.cfg.reap(i)
}
