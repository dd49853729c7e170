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

// RouterConfig tunes the fleet's ingest tier.
type RouterConfig struct {
	// Map is the fleet-wide consistent-hash shard map; it must match the
	// ShardConfig of every shard daemon. Required, and fixed for the
	// router's lifetime.
	Map wire.ShardMap
	// Log receives routing warnings; nil discards. Metrics, when set,
	// publishes the router counters (including each shard's count of
	// relayed reply lines).
	Log     *slog.Logger
	Metrics *obs.Registry

	// testAnswered, when set (in-package tests only), is called on a
	// shard connection's reader with the fleet-wide answered count once a
	// pass's lines are counted and before they are relayed, so a test can
	// kill a shard with the rest of a batch still in flight to it.
	testAnswered func(total int64)
	// reap, set by Start, is Fleet.reap, which DumpShard calls.
	reap func(i int) (*wire.ShardState, error)
}

const (
	// dialTimeout bounds one shard dial.
	dialTimeout = 2 * time.Second
	// replyTimeout bounds one write to a shard or a client; a shard
	// connection that owes replies and delivers no byte for that long,
	// twice over, counts as failed.
	replyTimeout = 10 * time.Second
	// maxLineBytes caps one protocol line, client- or shard-side.
	maxLineBytes = 16 << 20
)

// RouterStats counts the router's work. Cheap snapshot via Stats().
type RouterStats struct {
	// Forwarded counts shard replies relayed to clients, one per line a
	// shard answered (resubmitted duplicates included), and is the sum of
	// Tallies. Replies that reach a client connection already ended by a
	// shard failure are not counted: the client resubmits those lines.
	Forwarded int64
	// Rejected counts lines the router refused outright: any line
	// analyzerd.ParseMessage refuses (malformed, unnamed, unsequenced,
	// of an unknown type).
	Rejected int64
	// ShardDown counts client connections ended for an unreachable
	// shard; the reliable client reconnects and resubmits, so these are
	// delays, not losses.
	ShardDown int64
	// TenantLimited and Quiesced are always 0: the per-tenant quota gate
	// and the rebalance fence that counted here are gone. The fields stay
	// only because the frozen benchmark/ reads both; ROADMAP item 10 drops
	// them with its other shims.
	TenantLimited int64
	Quiesced      int64
}

// ShardTally is the router's account of one shard: the reply lines it
// relayed from that shard, by the rule Forwarded counts by. No drain
// reads it (a drain rebuilds every shard from its directory); it feeds
// only the benchmark's fleet.shard_skew.
type ShardTally struct {
	Answered int
}

// Total returns the tally's count.
func (t ShardTally) Total() int { return t.Answered }

// Router is the fleet's thin ingest tier: it speaks the same seq/ack wire
// protocol as a shard daemon and consistent-hashes each named client onto
// its owning shard. Each client connection reaches each shard it needs
// over a connection of its own, so the shard's replies are relayed
// verbatim with nothing to match, and any failure of that connection ends
// the client connection: the reliable client's reconnect-and-resubmit
// carries its lines across shard failover, in seq order. The only replies
// the router writes itself are unsequenced refusals. The map and its ring
// are fixed at StartRouter.
type Router struct {
	cfg  RouterConfig
	ln   net.Listener
	ring *wire.HashRing

	// inflight counts routed submissions between passing the gate and the
	// relay of their reply, or the end of the shard connection they were
	// written on. Stop waits for it to drain after the handlers are gone,
	// so a shard reaped afterwards has answered every message that was
	// already past the gate.
	inflight atomic.Int64
	// readers tracks the shard connections' reader goroutines; Close
	// waits for them.
	readers sync.WaitGroup
	// batchLines is the lines-per-shard-write histogram (nil no-ops
	// without a registry).
	batchLines *obs.Histogram
	// answered counts, per shard, the reply lines relayed from it: the
	// one count behind Stats().Forwarded, Tallies and /metrics.
	answered  []atomic.Int64
	rejected  atomic.Int64
	shardDown atomic.Int64

	mu      sync.Mutex
	addrs   []string            // guarded by mu
	conns   map[net.Conn]bool   // guarded by mu
	links   map[*shardConn]bool // guarded by mu
	stopped bool                // guarded by mu
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
		cfg:      cfg,
		ring:     ring,
		ln:       ln,
		answered: make([]atomic.Int64, cfg.Map.Shards),
		addrs:    make([]string, cfg.Map.Shards),
		conns:    map[net.Conn]bool{},
		links:    map[*shardConn]bool{},
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
	reg.GaugeFunc("vedr_router_forwarded_total", "shard replies relayed to clients",
		func() int64 { return r.Stats().Forwarded })
	reg.GaugeFunc("vedr_router_rejected_total", "lines the router refused (malformed/unnamed/unsequenced)",
		func() int64 { return r.Stats().Rejected })
	reg.GaugeFunc("vedr_router_shard_down_total", "client connections ended for an unreachable shard",
		func() int64 { return r.Stats().ShardDown })
	reg.GaugeFunc("vedr_router_inflight", "submissions past the gate whose reply has not been relayed",
		func() int64 { return r.inflight.Load() })
	r.batchLines = reg.Histogram("vedr_router_batch_lines", "client lines per shard write",
		[]int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
	for i := range r.answered {
		reg.GaugeFunc(fmt.Sprintf("vedr_router_shard_forwarded_%d", i), "reply lines relayed from this shard",
			func() int64 { return r.answered[i].Load() })
	}
}

// Addr returns the router's listen address.
func (r *Router) Addr() string { return r.ln.Addr().String() }

// SetShardAddr records shard i's address, the one way the router learns
// it: every shard starts unknown (a client of a not-yet-announced shard
// has its connection ended), and a supervisor sets it on each announce.
// Connections dialed from now on use it.
func (r *Router) SetShardAddr(i int, addr string) {
	if i < 0 || i >= r.cfg.Map.Shards {
		return
	}
	r.mu.Lock()
	r.addrs[i] = addr
	r.mu.Unlock()
}

// dial opens a connection to shard i at its last recorded address.
func (r *Router) dial(i int) (net.Conn, error) {
	r.mu.Lock()
	addr := r.addrs[i]
	r.mu.Unlock()
	if addr == "" {
		return nil, fmt.Errorf("shard %d has not announced an address", i)
	}
	return net.DialTimeout("tcp", addr, dialTimeout)
}

// Stats snapshots the router counters.
func (r *Router) Stats() RouterStats {
	st := RouterStats{Rejected: r.rejected.Load(), ShardDown: r.shardDown.Load()}
	for i := range r.answered {
		st.Forwarded += r.answered[i].Load()
	}
	return st
}

// Tallies snapshots each shard's count of relayed reply lines.
func (r *Router) Tallies() []ShardTally {
	out := make([]ShardTally, len(r.answered))
	for i := range r.answered {
		out[i].Answered = int(r.answered[i].Load())
	}
	return out
}

// Stop closes the listener and every client connection, waits for the
// handlers to finish and then for every submission still owed a reply on
// a shard connection to be answered — a shard reaped after Stop has
// answered, and so logged, everything it was ever sent. Close tears the
// shard connections down too.
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
	// A shard connection that owes replies and stays silent fails after
	// two replyTimeouts, so this settles on its own; the deadline is a
	// backstop.
	//lint:ignore nosystime bounding real in-flight TCP round trips
	deadline := time.Now().Add(dialTimeout + 2*replyTimeout)
	for r.inflight.Load() != 0 {
		//lint:ignore nosystime bounding real in-flight TCP round trips
		if time.Now().After(deadline) {
			r.cfg.Log.Warn("router stopped with submissions in flight", "inflight", r.inflight.Load())
			return
		}
		//lint:ignore nosystime pacing a poll on real in-flight TCP round trips
		time.Sleep(time.Millisecond)
	}
}

// Close stops the router and drops the shard connections.
func (r *Router) Close() {
	r.Stop()
	r.mu.Lock()
	for s := range r.links {
		_ = s.conn.Close() // the reader exits on the closed socket
	}
	r.mu.Unlock()
	r.readers.Wait()
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

// write sends reply lines to a client connection under a write deadline
// and reports whether they went out; a peer that cannot take them (gone,
// or not reading) is cut off rather than left to stall the shard
// connection's reader.
func (r *Router) write(conn net.Conn, b []byte) bool {
	//lint:ignore nosystime write deadline on a real TCP client connection
	err := conn.SetWriteDeadline(time.Now().Add(replyTimeout))
	if err == nil {
		_, err = conn.Write(b)
	}
	if err != nil {
		r.cfg.Log.Debug("router reply failed", "err", err)
		_ = conn.Close() // the write error is already reported above
	}
	return err == nil
}

// reject answers a line the router refuses outright.
func (r *Router) reject(conn net.Conn, reason string) {
	r.rejected.Add(1)
	r.write(conn, analyzerd.NakLine(0, "", reason, false))
}

// handle relays one client connection line by line.
func (r *Router) handle(conn net.Conn) {
	defer r.wg.Done()
	defer r.forget(conn)
	h := &handler{r: r, conn: conn, shards: make([]*shardConn, r.cfg.Map.Shards)}
	defer h.release()
	defer h.flush() // lines gated since the last read (an oversized line ends the scan without one)
	sc := bufio.NewScanner(h)
	sc.Buffer(make([]byte, 0, 64<<10), maxLineBytes)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		// ParseMessage, not a header scan: it is the whole ingest
		// contract, so the router refuses exactly the lines a shard
		// would, with the same {"error":…}, and never forwards a line
		// without the client it is placed by.
		msg, err := analyzerd.ParseMessage(line)
		if err != nil {
			r.reject(conn, err.Error())
			continue
		}
		r.inflight.Add(1)
		h.add(r.ring.Owner(msg.Client), line)
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
