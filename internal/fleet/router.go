package fleet

import (
	"bufio"
	"fmt"
	"log/slog"
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
	// Addrs are the shard listen addresses by index; entries may start
	// empty (a not-yet-announced shard routes as unavailable) and are
	// updated via SetShardAddr as supervisors learn them. len(Addrs) must
	// equal Map.Shards when non-nil.
	Addrs []string
	// ReplyTimeout (default 10s) bounds how long the oldest line in
	// flight on a shard link may go unanswered before the link is dropped
	// and everything in flight on it NAK'd retryably; it also bounds one
	// write to a shard, one relay write to a client (a peer that stops
	// reading is cut off, not waited for) and one dump exchange.
	ReplyTimeout time.Duration
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
	// maxLineBytes caps one protocol line, client- or shard-side.
	maxLineBytes = 16 << 20
)

// RouterStats counts the router's work. Cheap snapshot via Stats().
type RouterStats struct {
	// Forwarded counts messages relayed to a shard (including retried
	// duplicates of the same seq).
	Forwarded int64
	// Rejected counts lines the router refused outright: any line
	// analyzerd.ParseMessage refuses (malformed, unnamed, unsequenced),
	// and the dump verb, which must target a shard.
	Rejected int64
	// ShardDown counts retryable NACKs issued because the owning shard
	// could not be reached; the reliable client backs off and resubmits,
	// so these are delays, not losses.
	ShardDown int64
	// TenantLimited and Quiesced are always 0: the per-tenant quota gate
	// and the rebalance fence that counted here are gone. The fields stay
	// only because the frozen benchmark/ reads both; ROADMAP item 8 drops
	// them with its other shims.
	TenantLimited int64
	Quiesced      int64
	// OutOfOrder counts retryable NACKs issued by the bounce guard: the
	// router had turned away a lower seq of the same client, and letting
	// this one through first could make a shard acknowledge past the hole.
	OutOfOrder int64
}

// ShardTally is the router's account of what one shard acknowledged, by
// payload type, with resubmitted duplicates counted once. When a shard is
// unreachable at drain time, its tally is exactly what the merged
// diagnosis is missing — the degraded-coverage input.
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
	// bounced is the lowest seq the router itself turned away with a
	// retryable NAK (shard down, link death) and has not seen again —
	// the router-side twin of a shard's retryLow. While it is set every
	// higher seq of the client is bounced too: a shard with no highwater
	// for the client (first contact, evicted ack window, non-durable
	// restart) would baseline on the later seq, and its cumulative ack
	// would make the client drop the bounced one as delivered. 0 when
	// there is no hole.
	bounced int64
}

// Router is the fleet's thin ingest tier: it speaks the same seq/ack wire
// protocol as a shard daemon, consistent-hashes each named client onto
// its owning shard, forwards over one pipelined link per shard without
// waiting, relays the shard's replies verbatim as they arrive, and
// answers with a retryable NACK when the shard is down so the reliable
// client's resubmission machinery carries submissions across shard
// failover. The map, its ring and the links are fixed at StartRouter.
type Router struct {
	cfg   RouterConfig
	ln    net.Listener
	ring  *wire.HashRing
	links []*shardLink

	// inflight counts routed submissions between passing the gate and
	// the relay of their reply (or of the NAK that failed them): lines in
	// a handler's batch, lines in a link's in-flight table, replies
	// staged by a link reader. Stop waits for it to drain after the
	// handlers are gone, so a dump taken afterwards cannot miss a message
	// that was already past the gate.
	inflight atomic.Int64
	// readers tracks the link reader goroutines; Close waits for them.
	readers sync.WaitGroup
	// started anchors the latency timers' monotonic clock; batchLines is
	// the lines-per-shard-write histogram (nil without a registry).
	started    time.Time
	batchLines *obs.Histogram

	mu      sync.Mutex
	conns   map[net.Conn]bool
	stopped bool
	wg      sync.WaitGroup

	tmu     sync.Mutex
	tallies map[string]*clientTally
	stats   RouterStats
	acked   int64 // cumulative acked submissions (OnAcked feed)
}

// StartRouter binds the router and begins accepting clients.
func StartRouter(addr string, cfg RouterConfig) (*Router, error) {
	ring, err := wire.NewHashRing(cfg.Map)
	if err != nil {
		return nil, fmt.Errorf("fleet: router: %w", err)
	}
	if cfg.Addrs != nil && len(cfg.Addrs) != cfg.Map.Shards {
		return nil, fmt.Errorf("fleet: router has %d shard addrs for a map of %d", len(cfg.Addrs), cfg.Map.Shards)
	}
	if cfg.ReplyTimeout <= 0 {
		cfg.ReplyTimeout = 10 * time.Second
	}
	if cfg.Log == nil {
		cfg.Log = obs.NopLogger()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fleet: router: %w", err)
	}
	r := &Router{
		cfg:     cfg,
		ring:    ring,
		ln:      ln,
		links:   make([]*shardLink, cfg.Map.Shards),
		conns:   map[net.Conn]bool{},
		tallies: map[string]*clientTally{},
	}
	//lint:ignore nosystime anchoring the latency timers of a real TCP router
	r.started = time.Now()
	r.publishStats()
	for i := range r.links {
		addr := ""
		if cfg.Addrs != nil {
			addr = cfg.Addrs[i]
		}
		r.links[i] = r.newLink(i, addr)
	}
	r.wg.Add(1)
	go r.acceptLoop()
	return r, nil
}

// sinceStart is the latency timers' nanosecond clock.
func (r *Router) sinceStart() int64 {
	//lint:ignore nosystime the latency timers of a real TCP router
	return int64(time.Since(r.started))
}

func (r *Router) publishStats() {
	reg := r.cfg.Metrics
	if reg == nil {
		return
	}
	reg.GaugeFunc("vedr_router_forwarded_total", "messages relayed to shards",
		func() int64 { return r.Stats().Forwarded })
	reg.GaugeFunc("vedr_router_rejected_total", "lines the router refused (malformed/unnamed/unsequenced)",
		func() int64 { return r.Stats().Rejected })
	reg.GaugeFunc("vedr_router_shard_down_total", "retryable NACKs for unreachable shards",
		func() int64 { return r.Stats().ShardDown })
	reg.GaugeFunc("vedr_router_out_of_order_total", "retryable NACKs from the bounce guard",
		func() int64 { return r.Stats().OutOfOrder })
	reg.GaugeFunc("vedr_router_inflight", "submissions past the gate whose reply has not been relayed",
		func() int64 { return r.inflight.Load() })
	r.batchLines = reg.Histogram("vedr_router_batch_lines", "client lines per shard write",
		[]int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
}

// Addr returns the router's listen address.
func (r *Router) Addr() string { return r.ln.Addr().String() }

// Shards returns the shard-map size.
func (r *Router) Shards() int { return r.cfg.Map.Shards }

// Owner returns the shard index owning a client name.
func (r *Router) Owner(client string) int { return r.ring.Owner(client) }

// link returns shard i's link, or nil when there is no shard i.
func (r *Router) link(i int) *shardLink {
	if i < 0 || i >= len(r.links) {
		return nil
	}
	return r.links[i]
}

// SetShardAddr re-points shard i (a supervisor learned a restarted
// shard's address). A changed address drops the cached connections.
func (r *Router) SetShardAddr(i int, addr string) {
	if l := r.link(i); l != nil {
		l.setAddr(addr)
	}
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
// handlers to finish and then for every submission still in flight on a
// shard link to be answered — a dump taken after Stop holds everything a
// shard was ever sent. Shard links stay usable (DumpShard still works);
// Close tears those down too.
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
	// Every link fails its oldest line after ReplyTimeout, so this
	// settles on its own; the deadline is a backstop.
	//lint:ignore nosystime bounding real in-flight TCP round trips
	deadline := time.Now().Add(dialTimeout + 2*r.cfg.ReplyTimeout)
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
	for _, l := range r.links {
		l.close()
	}
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
// a peer that cannot take them (gone, or not reading) is cut off so it
// cannot stall the link reader that relays for everyone else.
func (r *Router) write(conn net.Conn, b []byte) {
	//lint:ignore nosystime write deadline on a real TCP client connection
	err := conn.SetWriteDeadline(time.Now().Add(r.cfg.ReplyTimeout))
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

// fail answers one gated line the router could not get a shard reply for
// and releases it from the in-flight count. The caller has armed the
// client's bounce guard.
func (r *Router) fail(f *flight, reason string) {
	r.write(f.out, analyzerd.NakLine(f.seq, "", reason, true))
	r.inflight.Add(-1)
}

// failAll fails lines lost with shard's link, in the order given.
func (r *Router) failAll(lost []*flight, shard int) {
	if len(lost) == 0 {
		return
	}
	r.count(func(s *RouterStats) { s.ShardDown += int64(len(lost)) })
	reason := fmt.Sprintf("shard %d unavailable", shard)
	for _, f := range lost {
		r.fail(f, reason)
	}
}

// handler is one client connection's relay loop. Gated lines collect in
// per-link batches and go out — one write per shard — right before the
// handler blocks on its next client read, so a pipelined burst costs one
// shard write and a single message takes no detour.
type handler struct {
	conn    net.Conn
	batches []linkBatch
}

type linkBatch struct {
	l       *shardLink
	flights []*flight
}

// Read flushes the batches, then reads from the client: bufio.Scanner
// only calls it when it has no complete line left to hand out.
func (h *handler) Read(p []byte) (int, error) {
	h.flush()
	return h.conn.Read(p)
}

func (h *handler) flush() {
	for i := range h.batches {
		b := &h.batches[i]
		if len(b.flights) > 0 {
			b.l.forward(b.flights)
			clear(b.flights)
			b.flights = b.flights[:0]
		}
	}
}

func (h *handler) add(l *shardLink, f *flight) {
	for i := range h.batches {
		if h.batches[i].l == l {
			h.batches[i].flights = append(h.batches[i].flights, f)
			return
		}
	}
	h.batches = append(h.batches, linkBatch{l: l, flights: []*flight{f}})
}

// handle relays one client connection line by line.
func (r *Router) handle(conn net.Conn) {
	defer r.wg.Done()
	defer r.forget(conn)
	h := &handler{conn: conn}
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
		// without the (client, seq) the link matches its reply by.
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
		h.add(r.links[r.ring.Owner(msg.Client)], &flight{
			client: msg.Client, seq: msg.Seq, typ: msg.Type, out: conn,
			line: append(append(make([]byte, 0, len(line)+1), line...), '\n'),
		})
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

// noteBounce arms client's bounce guard at seq: the router turned that
// submission away retryably, so nothing above it may reach a shard until
// it has come back. A seq a shard already acknowledged leaves no hole.
func (r *Router) noteBounce(client string, seq int64) {
	r.tmu.Lock()
	ct := r.tallyLocked(client)
	if seq > ct.counted && (ct.bounced == 0 || seq < ct.bounced) {
		ct.bounced = seq
	}
	r.tmu.Unlock()
}

// admit splits a batch bound for one shard link into the lines that may
// go (a prefix of batch, order kept) and the ones the bounce guard turns
// away, and records each admitted identity as awaiting its ack.
// Already-counted seqs (a resubmission of something acked before a
// failover) are skipped so the tallies stay exactly-once. Called with the
// link's mu held, so a line admitted after a link death sees the guards
// that death armed.
func (r *Router) admit(batch []*flight) (admitted, late []*flight) {
	r.tmu.Lock()
	defer r.tmu.Unlock()
	admitted = batch[:0]
	for _, f := range batch {
		ct := r.tallyLocked(f.client)
		switch {
		case ct.bounced != 0 && f.seq > ct.bounced:
			late = append(late, f)
			continue
		case f.seq == ct.bounced:
			ct.bounced = 0 // the bounced submission is back; its tail may follow
		}
		admitted = append(admitted, f)
		if f.seq <= ct.counted {
			continue
		}
		i := sort.Search(len(ct.pending), func(i int) bool { return ct.pending[i].seq >= f.seq })
		if i < len(ct.pending) && ct.pending[i].seq == f.seq {
			continue
		}
		ct.pending = append(ct.pending, seqType{})
		copy(ct.pending[i+1:], ct.pending[i:])
		ct.pending[i] = seqType{seq: f.seq, typ: f.typ}
	}
	return admitted, late
}

// noteAck folds a shard's cumulative ack into the client's tally: it
// settles every pending seq at or below it, and closes a bounce-guard
// hole the shard has evidently seen filled.
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
	if ct.bounced != 0 && ack >= ct.bounced {
		ct.bounced = 0
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
// error.
// The state's shard index and map are checked against the router's — a
// mismatched dump means the fleet is misassembled, and merging it would
// corrupt the diagnosis.
func (r *Router) DumpShard(i int) (*wire.ShardState, error) {
	l := r.link(i)
	if l == nil {
		return nil, fmt.Errorf("fleet: no shard %d", i)
	}
	var state *wire.ShardState
	err := l.dump([]byte(`{"type":"dump"}`+"\n"), func(rep []byte) error {
		st, failure, err := wire.DecodeShardState(rep)
		switch {
		case err != nil:
			return fmt.Errorf("fleet: shard %d dump: %w", i, err)
		case st.Format == 0 && failure != "":
			return fmt.Errorf("fleet: shard %d dump: %s", i, failure)
		case st.Format == 0:
			return fmt.Errorf("fleet: shard %d dump: unrecognized reply", i)
		}
		state = st
		return nil
	})
	if err != nil {
		return nil, err
	}
	if state.Shard != i || state.Map != r.cfg.Map {
		return nil, fmt.Errorf("fleet: dump from shard %d/%+v where shard %d/%+v was expected",
			state.Shard, state.Map, i, r.cfg.Map)
	}
	return state, nil
}

// dumpRetry dumps one shard at drain time, riding out a supervised
// restart until the deadline: transport failures are a restart in
// progress, not a verdict.
func (r *Router) dumpRetry(i int, deadline time.Time) (*wire.ShardState, error) {
	for {
		state, err := r.DumpShard(i)
		//lint:ignore nosystime bounding a real restarting process
		if err == nil || time.Now().After(deadline) {
			return state, err
		}
		r.cfg.Log.Warn("shard dump retrying", "shard", i, "err", err)
		//lint:ignore nosystime backoff between retries against a real restarting process
		time.Sleep(50 * time.Millisecond)
	}
}
