package fleet

import (
	"bufio"
	"fmt"
	"log/slog"
	"math"
	"net"
	"sort"
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
	// OnAcked, when set, observes the cumulative count of acknowledged
	// submissions after each ack is folded in. Called without router
	// locks held; keep it fast or hand off to a goroutine.
	OnAcked func(total int64)
	// Log receives routing warnings; nil discards. Metrics, when set,
	// publishes the router counters (including a per-shard counter of
	// forwarded messages).
	Log     *slog.Logger
	Metrics *obs.Registry
}

const (
	// dialTimeout bounds one shard dial.
	dialTimeout = 2 * time.Second
	// replyTimeout bounds one write to a shard or a client and one dump
	// exchange; a shard connection that owes replies and delivers no byte
	// for that long, twice over, counts as failed.
	replyTimeout = 10 * time.Second
	// maxLineBytes caps one protocol line, client- or shard-side.
	maxLineBytes = 16 << 20
)

// RouterStats counts the router's work. Cheap snapshot via Stats().
type RouterStats struct {
	// Forwarded counts shard replies relayed to clients, one per message
	// a shard answered (resubmitted duplicates included).
	Forwarded int64
	// Rejected counts lines the router refused outright: any line
	// analyzerd.ParseMessage refuses (malformed, unnamed, unsequenced),
	// and the dump verb, which must target a shard.
	Rejected int64
	// ShardDown counts client connections ended for an unreachable
	// shard; the reliable client reconnects and resubmits, so these are
	// delays, not losses.
	ShardDown int64
	// TenantLimited and Quiesced are always 0: the per-tenant quota gate
	// and the rebalance fence that counted here are gone. The fields stay
	// only because the frozen benchmark/ reads both; ROADMAP item 8 drops
	// them with its other shims.
	TenantLimited int64
	Quiesced      int64
}

// ShardTally is the router's account of what one shard acknowledged, by
// payload type, with resubmitted duplicates counted once. No drain reads
// it (a shard the drain cannot dump is recovered from its WAL); it feeds
// only the benchmark's fleet.shard_skew.
type ShardTally struct {
	Records int
	Reports int
	CFs     int
}

// Total sums the tally.
func (t ShardTally) Total() int { return t.Records + t.Reports + t.CFs }

// seqType is one forwarded-but-unacked message identity.
type seqType struct {
	seq int64
	typ string
}

// clientTally deduplicates ack accounting per client: pending holds
// forwarded seqs (ascending) awaiting their cumulative ack, counted is
// the highwater already folded into tally.
type clientTally struct {
	counted int64
	pending []seqType
	tally   ShardTally
}

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
	// so a dump taken afterwards cannot miss a message that was already
	// past the gate.
	inflight atomic.Int64
	// readers tracks the shard connections' reader goroutines; Close
	// waits for them.
	readers sync.WaitGroup
	// batchLines is the lines-per-shard-write histogram, forwarded the
	// per-shard reply counters (nil no-ops without a registry).
	batchLines *obs.Histogram
	forwarded  []*obs.Counter

	mu      sync.Mutex
	addrs   []string            // guarded by mu
	conns   map[net.Conn]bool   // guarded by mu
	links   map[*shardConn]bool // guarded by mu
	stopped bool                // guarded by mu
	wg      sync.WaitGroup

	tmu     sync.Mutex
	tallies map[string]*clientTally // guarded by tmu
	stats   RouterStats             // guarded by tmu
	acked   int64                   // guarded by tmu: cumulative acked submissions (OnAcked feed)
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
		cfg:       cfg,
		ring:      ring,
		ln:        ln,
		forwarded: make([]*obs.Counter, cfg.Map.Shards),
		addrs:     make([]string, cfg.Map.Shards),
		conns:     map[net.Conn]bool{},
		links:     map[*shardConn]bool{},
		tallies:   map[string]*clientTally{},
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
	for i := range r.forwarded {
		r.forwarded[i] = reg.Counter(fmt.Sprintf("vedr_router_shard_forwarded_%d", i),
			"messages relayed to this shard")
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
	r.tmu.Lock()
	defer r.tmu.Unlock()
	return r.stats
}

// Tallies snapshots the per-shard acked accounting: each client's
// acknowledged payloads are attributed to the shard that owns it.
func (r *Router) Tallies() []ShardTally {
	out := make([]ShardTally, r.cfg.Map.Shards)
	r.tmu.Lock()
	defer r.tmu.Unlock()
	for client, ct := range r.tallies {
		s := r.ring.Owner(client)
		out[s].Records += ct.tally.Records
		out[s].Reports += ct.tally.Reports
		out[s].CFs += ct.tally.CFs
	}
	return out
}

// Stop closes the listener and every client connection, waits for the
// handlers to finish and then for every submission still owed a reply on
// a shard connection to be answered — a dump taken after Stop holds
// everything a shard was ever sent. DumpShard still works; Close tears
// the shard connections down too.
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

func (r *Router) count(f func(*RouterStats)) {
	r.tmu.Lock()
	f(&r.stats)
	r.tmu.Unlock()
}

// write sends reply lines to a client connection under a write deadline;
// a peer that cannot take them (gone, or not reading) is cut off rather
// than left to stall the shard connection's reader.
func (r *Router) write(conn net.Conn, b []byte) {
	//lint:ignore nosystime write deadline on a real TCP client connection
	err := conn.SetWriteDeadline(time.Now().Add(replyTimeout))
	if err == nil {
		_, err = conn.Write(b)
	}
	if err != nil {
		r.cfg.Log.Debug("router reply failed", "err", err)
		_ = conn.Close() // the write error is already reported above
	}
}

// reject answers a line the router refuses outright.
func (r *Router) reject(conn net.Conn, reason string) {
	r.count(func(s *RouterStats) { s.Rejected++ })
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
		// without the (client, seq) its ack is tallied by.
		msg, err := analyzerd.ParseMessage(line)
		if err != nil {
			r.reject(conn, err.Error())
			continue
		}
		if msg.Type == analyzerd.TypeDump {
			// The drain gathers per-shard dumps itself; a merged dump
			// through the router would hide which shard is unreachable.
			r.reject(conn, "dump must target a shard, not the router")
			continue
		}
		r.inflight.Add(1)
		r.noteForward(msg.Client, msg.Seq, msg.Type)
		h.add(r.ring.Owner(msg.Client), line)
	}
}

// tallyLocked returns client's tally, creating it on first sight.
// Callers hold r.tmu.
func (r *Router) tallyLocked(client string) *clientTally {
	ct := r.tallies[client]
	if ct == nil {
		ct = &clientTally{}
		r.tallies[client] = ct
	}
	return ct
}

// noteForward records a gated line as awaiting its ack. An
// already-counted seq (a resubmission of something acked before a
// failover) or one already pending is skipped, so the tallies stay
// exactly-once.
func (r *Router) noteForward(client string, seq int64, typ string) {
	r.tmu.Lock()
	defer r.tmu.Unlock()
	ct := r.tallyLocked(client)
	if seq <= ct.counted {
		return
	}
	i := sort.Search(len(ct.pending), func(i int) bool { return ct.pending[i].seq >= seq })
	if i < len(ct.pending) && ct.pending[i].seq == seq {
		return
	}
	ct.pending = append(ct.pending, seqType{})
	copy(ct.pending[i+1:], ct.pending[i:])
	ct.pending[i] = seqType{seq: seq, typ: typ}
}

// noteAck folds a shard's cumulative ack into the client's tally: it
// settles every pending seq at or below it.
func (r *Router) noteAck(client string, ack int64) {
	r.tmu.Lock()
	ct := r.tallies[client]
	if ct == nil {
		r.tmu.Unlock()
		return
	}
	n := 0
	for _, p := range ct.pending {
		if p.seq > ack {
			break
		}
		switch p.typ {
		case analyzerd.TypeStep:
			ct.tally.Records++
		case analyzerd.TypeReport:
			ct.tally.Reports++
		case analyzerd.TypeCF:
			ct.tally.CFs++
		}
		n++
	}
	ct.pending = ct.pending[n:]
	if ack > ct.counted {
		ct.counted = ack
	}
	r.acked += int64(n)
	total := r.acked
	r.tmu.Unlock()
	if n > 0 && r.cfg.OnAcked != nil {
		r.cfg.OnAcked(total)
	}
}

// DumpShard asks one shard for its full accepted-message state over a
// connection dialed for the dump; a shard-side error line comes back as an
// error. The state's shard index and map are checked against the
// router's — a mismatched dump means the fleet is misassembled, and
// merging it would corrupt the diagnosis.
func (r *Router) DumpShard(i int) (*wire.ShardState, error) {
	if i < 0 || i >= r.cfg.Map.Shards {
		return nil, fmt.Errorf("fleet: no shard %d", i)
	}
	rep, err := r.dumpLine(i)
	if err != nil {
		return nil, err
	}
	state, failure, err := wire.DecodeShardState(rep)
	switch {
	case err != nil:
		return nil, fmt.Errorf("fleet: shard %d dump: %w", i, err)
	case state.Format == 0 && failure != "":
		return nil, fmt.Errorf("fleet: shard %d dump: %s", i, failure)
	case state.Format == 0:
		return nil, fmt.Errorf("fleet: shard %d dump: unrecognized reply", i)
	case state.Shard != i || state.Map != r.cfg.Map:
		return nil, fmt.Errorf("fleet: dump from shard %d/%+v where shard %d/%+v was expected",
			state.Shard, state.Map, i, r.cfg.Map)
	}
	return state, nil
}

// dumpLine runs one dump exchange with shard i on a connection dialed
// for it and returns the single-line reply. The reply is a shard's whole
// state, megabytes on one line, so it is read in large chunks into a
// buffer that grows to fit it.
func (r *Router) dumpLine(i int) ([]byte, error) {
	conn, err := r.dial(i)
	if err != nil {
		return nil, err
	}
	defer func() { _ = conn.Close() }() // the reply is in, or the exchange failed
	//lint:ignore nosystime bounding a real TCP round trip to a shard daemon
	err = conn.SetDeadline(time.Now().Add(replyTimeout))
	if err == nil {
		_, err = conn.Write([]byte(`{"type":"dump"}` + "\n"))
	}
	lr := lineReader{buf: make([]byte, 64<<10)}
	for err == nil {
		if rep := lr.next(); rep != nil {
			return rep, nil
		}
		err = lr.fill(conn, math.MaxInt) // a dump is as long as the shard's state
	}
	return nil, err
}
