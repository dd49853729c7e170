package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"vedrfolnir/internal/analyzerd"
	"vedrfolnir/internal/wire"
)

// wallDeadline is a real-TCP deadline d from now.
func wallDeadline(d time.Duration) time.Time {
	//lint:ignore nosystime deadline on a real TCP connection in a test
	return time.Now().Add(d)
}

// eventually polls cond for up to ten seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := wallDeadline(10 * time.Second)
	for !cond() {
		//lint:ignore nosystime test deadline
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		//lint:ignore nosystime polling real goroutines and sockets
		time.Sleep(time.Millisecond)
	}
}

// fakeShard is a scripted stand-in for a shard daemon: it accepts the
// router's connections and hands every line it reads to the test, which
// answers on the same connection in whatever order it likes.
type fakeShard struct {
	ln    net.Listener
	lines chan fakeLine
	done  chan struct{}
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns []net.Conn // guarded by mu
}

// fakeLine is one forwarded line as the fake shard saw it.
type fakeLine struct {
	conn   net.Conn
	client string
	seq    int64
}

func startFakeShard(t *testing.T) *fakeShard {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("fake shard: %v", err)
	}
	// Room for everything a test leaves unanswered at once, so the
	// connection goroutines never stall the router's writes.
	s := &fakeShard{ln: ln, lines: make(chan fakeLine, 1024), done: make(chan struct{})}
	s.wg.Add(1)
	go s.accept()
	t.Cleanup(s.stop)
	return s
}

func (s *fakeShard) addr() string { return s.ln.Addr().String() }

func (s *fakeShard) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		s.conns = append(s.conns, conn)
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			sc := bufio.NewScanner(conn)
			sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
			for sc.Scan() {
				var m struct {
					Client string `json:"client"`
					Seq    int64  `json:"seq"`
				}
				if json.Unmarshal(sc.Bytes(), &m) != nil {
					continue
				}
				select {
				case s.lines <- fakeLine{conn, m.Client, m.Seq}:
				case <-s.done:
					return
				}
			}
		}()
	}
}

func (s *fakeShard) stop() {
	_ = s.ln.Close()
	s.mu.Lock()
	for _, c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	close(s.done)
	s.wg.Wait()
}

// accepted reports how many connections the router has opened so far.
func (s *fakeShard) accepted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// take waits for the next n forwarded lines.
func (s *fakeShard) take(t *testing.T, n int) []fakeLine {
	t.Helper()
	out := make([]fakeLine, 0, n)
	//lint:ignore nosystime bounding a wait on real sockets in a test
	timeout := time.After(10 * time.Second)
	for len(out) < n {
		select {
		case fl := <-s.lines:
			out = append(out, fl)
		case <-timeout:
			t.Fatalf("fake shard saw %d of %d lines", len(out), n)
		}
	}
	return out
}

func (fl fakeLine) ack() string {
	return fmt.Sprintf(`{"ack":%d,"client":%q}`, fl.seq, fl.client)
}

func (fl fakeLine) nak(retry bool) string {
	if retry {
		return fmt.Sprintf(`{"nak":%d,"client":%q,"error":"overloaded","retry":true}`, fl.seq, fl.client)
	}
	return fmt.Sprintf(`{"nak":%d,"client":%q,"error":"rejected"}`, fl.seq, fl.client)
}

func (fl fakeLine) moved(owner int) string {
	return fmt.Sprintf(`{"nak":%d,"client":%q,"moved":true,"owner":%d,"map":{"shards":2},"error":"moved","retry":true}`,
		fl.seq, fl.client, owner)
}

// send writes one reply line; a closed connection is the test's doing.
func (fl fakeLine) send(reply string) {
	_, _ = fl.conn.Write([]byte(reply + "\n"))
}

// find picks the line for (client, seq) out of a taken batch.
func find(t *testing.T, lines []fakeLine, client string, seq int64) fakeLine {
	t.Helper()
	for _, fl := range lines {
		if fl.client == client && fl.seq == seq {
			return fl
		}
	}
	t.Fatalf("no forwarded line for %s/%d in %v", client, seq, lines)
	return fakeLine{}
}

// linkReply is a reply as a client of the router sees it.
type linkReply struct {
	Ack    int64  `json:"ack"`
	Nak    int64  `json:"nak"`
	Client string `json:"client"`
	Error  string `json:"error"`
	Retry  bool   `json:"retry"`
	Moved  bool   `json:"moved"`
}

func (r linkReply) seq() int64 {
	if r.Ack != 0 {
		return r.Ack
	}
	return r.Nak
}

// rawClient speaks the ingest protocol to the router over a bare
// connection, so a test controls exactly which lines share a write.
type rawClient struct {
	id   string
	conn net.Conn
	br   *bufio.Reader
}

func dialRouter(t *testing.T, r *Router, id string) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatalf("dial router: %v", err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return &rawClient{id: id, conn: conn, br: bufio.NewReader(conn)}
}

func cfLine(client string, seq int64) string {
	return fmt.Sprintf(`{"type":"cf","cf":{"src":%d,"dst":2,"src_port":7,"dst_port":8,"proto":17},"seq":%d,"client":%q}`+"\n",
		seq, seq, client)
}

// send submits the given seqs in one write.
func (c *rawClient) send(t *testing.T, seqs ...int64) {
	t.Helper()
	var b bytes.Buffer
	for _, s := range seqs {
		b.WriteString(cfLine(c.id, s))
	}
	if _, err := c.conn.Write(b.Bytes()); err != nil {
		t.Fatalf("%s: write: %v", c.id, err)
	}
}

// recv reads the next n replies.
func (c *rawClient) recv(t *testing.T, n int) []linkReply {
	t.Helper()
	out := make([]linkReply, 0, n)
	for len(out) < n {
		if err := c.conn.SetReadDeadline(wallDeadline(10 * time.Second)); err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		line, err := c.br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("%s: got %d of %d replies: %v", c.id, len(out), n, err)
		}
		var rep linkReply
		if err := json.Unmarshal(line, &rep); err != nil {
			t.Fatalf("%s: reply %q: %v", c.id, line, err)
		}
		out = append(out, rep)
	}
	return out
}

// startLinkRouter fronts the fake shards with a router.
func startLinkRouter(t *testing.T, cfg RouterConfig, shards ...*fakeShard) *Router {
	t.Helper()
	cfg.Map = wire.ShardMap{Shards: len(shards)}
	for _, s := range shards {
		cfg.Addrs = append(cfg.Addrs, s.addr())
	}
	router, err := StartRouter("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("StartRouter: %v", err)
	}
	t.Cleanup(router.Close)
	return router
}

// linkIdle asserts the router holds nothing in flight anywhere.
func linkIdle(t *testing.T, r *Router) {
	t.Helper()
	eventually(t, "inflight to drain", func() bool { return r.inflight.Load() == 0 })
	for i := 0; i < r.Shards(); i++ {
		l := r.link(i)
		l.mu.Lock()
		n, head := len(l.table), l.head
		l.mu.Unlock()
		if n != 0 || head != nil {
			t.Errorf("link %d still holds %d in-flight entries", i, n)
		}
	}
}

// TestLinkDemuxUnderReordering: a shard's replies are not FIFO. The fake
// answers a batch from two clients in a permuted order — including a
// handler-side duplicate-ack for hb ahead of the applier's ack for an
// earlier line of ha — and every client connection must still receive
// exactly its own replies, with each acked payload tallied once.
func TestLinkDemuxUnderReordering(t *testing.T) {
	shard := startFakeShard(t)
	var mu sync.Mutex
	var totals []int64
	router := startLinkRouter(t, RouterConfig{OnAcked: func(total int64) {
		mu.Lock()
		totals = append(totals, total)
		mu.Unlock()
	}}, shard)
	ha, hb := dialRouter(t, router, "ha"), dialRouter(t, router, "hb")
	ha.send(t, 1, 2, 3, 4)
	hb.send(t, 1, 2, 3, 4)
	lines := shard.take(t, 8)

	order := []struct {
		client string
		seq    int64
	}{{"hb", 2}, {"ha", 3}, {"ha", 1}, {"hb", 4}, {"hb", 1}, {"ha", 4}, {"ha", 2}, {"hb", 3}}
	for _, o := range order {
		fl := find(t, lines, o.client, o.seq)
		fl.send(fl.ack())
	}
	for _, c := range []*rawClient{ha, hb} {
		var want []int64
		for _, o := range order {
			if o.client == c.id {
				want = append(want, o.seq)
			}
		}
		for i, rep := range c.recv(t, 4) {
			if rep.Client != c.id || rep.Ack != want[i] {
				t.Errorf("%s reply %d = %+v, want its own ack %d", c.id, i, rep, want[i])
			}
		}
	}
	linkIdle(t, router)
	if got := router.Tallies()[0]; got.CFs != 8 || got.Total() != 8 {
		t.Errorf("tally = %+v, want each of the 8 acked flows once", got)
	}

	// A resubmission of something already acknowledged is relayed but
	// not counted again.
	ha.send(t, 4)
	dup := shard.take(t, 1)[0]
	dup.send(dup.ack())
	if rep := ha.recv(t, 1)[0]; rep.Ack != 4 {
		t.Errorf("duplicate reply = %+v, want ack 4", rep)
	}
	if got := router.Tallies()[0].Total(); got != 8 {
		t.Errorf("tally after a duplicate = %d, want 8", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(totals) == 0 || totals[len(totals)-1] != 8 {
		t.Fatalf("OnAcked totals = %v, want them to end at 8", totals)
	}
	for i := 1; i < len(totals); i++ {
		if totals[i] <= totals[i-1] {
			t.Errorf("OnAcked totals not increasing: %v", totals)
		}
	}
	if st := router.Stats(); st.Forwarded != 9 || st.ShardDown != 0 {
		t.Errorf("stats = %+v, want 9 forwarded and no failures", st)
	}
}

// TestLinkDeathFailsEveryInFlightLine: when the connection dies with
// lines in flight, each gets exactly one retryable NAK, in (client, seq)
// order, the next line dials fresh without costing anyone a back-off —
// and the bounce guard holds a client's tail back until the lost head is
// resubmitted.
func TestLinkDeathFailsEveryInFlightLine(t *testing.T) {
	shard := startFakeShard(t)
	router := startLinkRouter(t, RouterConfig{}, shard)
	ha, hb := dialRouter(t, router, "ha"), dialRouter(t, router, "hb")
	hb.send(t, 1, 2)
	first := shard.take(t, 2)
	ha.send(t, 1, 2, 3)
	lines := append(first, shard.take(t, 3)...)

	answered := find(t, lines, "ha", 2)
	answered.send(answered.ack())
	if rep := ha.recv(t, 1)[0]; rep.Ack != 2 {
		t.Fatalf("ha reply = %+v, want ack 2", rep)
	}
	_ = answered.conn.Close() // the shard dies with four lines in flight

	for _, c := range []struct {
		cl   *rawClient
		want []int64
	}{{ha, []int64{1, 3}}, {hb, []int64{1, 2}}} {
		for i, rep := range c.cl.recv(t, len(c.want)) {
			if rep.Nak != c.want[i] || !rep.Retry || rep.Error != "shard 0 unavailable" {
				t.Errorf("%s reply %d = %+v, want a retryable shard-unavailable NAK for seq %d",
					c.cl.id, i, rep, c.want[i])
			}
		}
	}
	linkIdle(t, router)
	if st := router.Stats(); st.ShardDown != 4 {
		t.Errorf("ShardDown = %d, want 4 (one per line lost with the link)", st.ShardDown)
	}

	// hb's seq 1 was bounced: seq 3 must not overtake it.
	hb.send(t, 3)
	if rep := hb.recv(t, 1)[0]; rep.Nak != 3 || !rep.Retry || rep.Error != "out of order" {
		t.Errorf("hb tail reply = %+v, want a retryable out-of-order NAK", rep)
	}
	// The resubmission goes out on a fresh connection, straight away.
	hb.send(t, 1, 2, 3)
	for _, fl := range shard.take(t, 3) {
		if fl.conn == answered.conn {
			t.Fatalf("line %+v arrived on the dead connection", fl)
		}
		fl.send(fl.ack())
	}
	for i, rep := range hb.recv(t, 3) {
		if rep.Ack != int64(i+1) {
			t.Errorf("hb resubmission reply %d = %+v, want ack %d", i, rep, i+1)
		}
	}
	linkIdle(t, router)
	if st := router.Stats(); st.ShardDown != 4 || st.OutOfOrder != 1 {
		t.Errorf("stats = %+v, want the redial to cost no further NAK", st)
	}
	if n := shard.accepted(); n != 2 {
		t.Errorf("fake shard saw %d connections, want 2", n)
	}
}

// TestLinkWriteErrorRetriesOnce: a write that fails (here: the router's
// own end of the socket shut for writing, so the reader sees nothing)
// retires the connection, NAKs what was in flight on it, and retries the
// failed batch once on a fresh dial.
func TestLinkWriteErrorRetriesOnce(t *testing.T) {
	shard := startFakeShard(t)
	router := startLinkRouter(t, RouterConfig{}, shard)
	ha, hb := dialRouter(t, router, "ha"), dialRouter(t, router, "hb")
	hb.send(t, 1)
	shard.take(t, 1) // left unanswered: in flight when the write fails

	l := router.link(0)
	l.mu.Lock()
	err := l.conn.(*net.TCPConn).CloseWrite()
	l.mu.Unlock()
	if err != nil {
		t.Fatalf("CloseWrite: %v", err)
	}
	ha.send(t, 1, 2)
	for _, fl := range shard.take(t, 2) {
		fl.send(fl.ack())
	}
	for i, rep := range ha.recv(t, 2) {
		if rep.Ack != int64(i+1) {
			t.Errorf("ha reply %d = %+v, want ack %d after the retry", i, rep, i+1)
		}
	}
	if rep := hb.recv(t, 1)[0]; rep.Nak != 1 || !rep.Retry {
		t.Errorf("hb reply = %+v, want the line lost with the link NAK'd retryably", rep)
	}
	linkIdle(t, router)
	if st := router.Stats(); st.ShardDown != 1 || st.Forwarded != 2 {
		t.Errorf("stats = %+v, want 1 shard-down NAK and 2 forwarded", st)
	}
}

// TestLinkReplyTimeout: ReplyTimeout bounds the oldest line in flight.
// A shard that goes silent costs its link: everything in flight is
// NAK'd, and later lines start over on a fresh connection.
func TestLinkReplyTimeout(t *testing.T) {
	shard := startFakeShard(t)
	router := startLinkRouter(t, RouterConfig{ReplyTimeout: 150 * time.Millisecond}, shard)
	ha := dialRouter(t, router, "ha")
	ha.send(t, 1, 2)
	silent := shard.take(t, 2)
	for i, rep := range ha.recv(t, 2) {
		if rep.Nak != int64(i+1) || !rep.Retry || rep.Error != "shard 0 unavailable" {
			t.Errorf("reply %d = %+v, want a retryable NAK once the shard went silent", i, rep)
		}
	}
	linkIdle(t, router)
	ha.send(t, 1)
	fl := shard.take(t, 1)[0]
	if fl.conn == silent[0].conn {
		t.Fatal("the timed-out connection was reused")
	}
	fl.send(fl.ack())
	if rep := ha.recv(t, 1)[0]; rep.Ack != 1 {
		t.Errorf("reply after the redial = %+v, want ack 1", rep)
	}
	// An idle link is not timed out: the reader parks without a deadline.
	//lint:ignore nosystime outliving a real 150ms socket deadline
	time.Sleep(400 * time.Millisecond)
	ha.send(t, 2)
	again := shard.take(t, 1)[0]
	if again.conn != fl.conn {
		t.Error("an idle link was dropped by ReplyTimeout")
	}
	again.send(again.ack())
	ha.recv(t, 1)
}

// TestRouterStopWaitsForInflight: Stop returns only once every line past
// the gate has been answered, so whatever a shard acknowledged late is in
// the tallies (and in its dump) by the time the drain reads them.
func TestRouterStopWaitsForInflight(t *testing.T) {
	shard := startFakeShard(t)
	router := startLinkRouter(t, RouterConfig{}, shard)
	ha := dialRouter(t, router, "ha")
	ha.send(t, 1, 2, 3)
	lines := shard.take(t, 3)
	if got := router.inflight.Load(); got != 3 {
		t.Fatalf("inflight = %d with 3 lines unanswered", got)
	}
	go func() {
		//lint:ignore nosystime letting Stop reach its wait first
		time.Sleep(50 * time.Millisecond)
		for _, fl := range lines {
			fl.send(fl.ack())
		}
	}()
	router.Stop()
	if got := router.inflight.Load(); got != 0 {
		t.Errorf("Stop returned with inflight = %d", got)
	}
	if got := router.Tallies()[0].Total(); got != 3 {
		t.Errorf("tally after Stop = %d, want the 3 late acks", got)
	}
}

// TestRouterBounceGuardFirstContact is the first-contact regression: the
// shard's address is unannounced while a client flushes the head of its
// first batch and announced before the rest arrives. The router bounced
// the head, so it must bounce the tail too — a shard with no highwater
// for the client would baseline on the first seq it sees, and its
// cumulative ack would make the client drop the bounced head as
// delivered. The client below follows ReliableClient's rules (a
// cumulative ack settles everything at or below it; retryable NAKs stay
// pending), and every message must end up in the dump exactly once.
func TestRouterBounceGuardFirstContact(t *testing.T) {
	m := wire.ShardMap{Shards: 1}
	srv := startTestShard(t, m, 0, "")
	defer srv.Close()
	router, err := StartRouter("127.0.0.1:0", RouterConfig{Map: m, Addrs: []string{""}})
	if err != nil {
		t.Fatalf("StartRouter: %v", err)
	}
	defer router.Close()
	c := dialRouter(t, router, "h00")

	const n = 16
	pending := make([]int64, n)
	for i := range pending {
		pending[i] = int64(i + 1)
	}
	settle := func(replies []linkReply) {
		var acked int64
		for _, rep := range replies {
			if rep.Ack > acked {
				acked = rep.Ack
			}
		}
		kept := pending[:0]
		for _, s := range pending {
			if s > acked {
				kept = append(kept, s)
			}
		}
		pending = kept
	}

	c.send(t, pending[:n/2]...)
	head := c.recv(t, n/2)
	router.SetShardAddr(0, srv.Addr()) // announced mid-batch
	c.send(t, pending[n/2:]...)
	tail := c.recv(t, n/2)
	for _, rep := range append(head, tail...) {
		if rep.Ack != 0 || !rep.Retry {
			t.Errorf("first flush reply %+v, want every line bounced retryably", rep)
		}
	}
	settle(append(head, tail...))
	for attempt := 0; len(pending) > 0 && attempt < 3; attempt++ {
		c.send(t, pending...)
		settle(c.recv(t, len(pending)))
	}
	if len(pending) != 0 {
		t.Fatalf("%d messages never acknowledged", len(pending))
	}

	state, err := router.DumpShard(0)
	if err != nil {
		t.Fatalf("DumpShard: %v", err)
	}
	seen := map[int64]int{}
	for _, sm := range state.Messages {
		seen[sm.Seq]++
	}
	for s := int64(1); s <= n; s++ {
		if seen[s] != 1 {
			t.Errorf("seq %d is in the dump %d times, want exactly once", s, seen[s])
		}
	}
	if st := router.Stats(); st.ShardDown != n/2 || st.OutOfOrder != n/2 {
		t.Errorf("stats = %+v, want %d shard-down and %d out-of-order NAKs", st, n/2, n/2)
	}
}

// propertySeeds is the seed corpus of TestLinkPropertyOneReplyPerLine;
// -short (the on-push smoke) runs the first few.
var propertySeeds = []int64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233}

// TestLinkPropertyOneReplyPerLine drives random interleavings of clients,
// acks, retryable and permanent NAKs, moved NAKs and link deaths with 0-64
// lines in flight through a router over two scripted shards, and checks
// the link's invariants: exactly one reply per line a client wrote, a
// client's lines reach its shard in the order it wrote them, nothing left
// in a table, inflight back to 0.
func TestLinkPropertyOneReplyPerLine(t *testing.T) {
	seeds := propertySeeds
	if testing.Short() {
		seeds = seeds[:4]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) { linkProperty(t, seed) })
	}
}

// propClient is one property-test client: what it wrote, in order, and
// how many replies each seq is still owed.
type propClient struct {
	raw   *rawClient
	owner int
	next  int64

	mu      sync.Mutex
	wrote   []int64       // guarded by mu
	owed    map[int64]int // guarded by mu
	bounced int64         // guarded by mu: lowest seq the router turned away
	extra   int           // guarded by mu: replies nothing was owed for
}

func linkProperty(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	shards := []*fakeShard{startFakeShard(t), startFakeShard(t)}
	router := startLinkRouter(t, RouterConfig{}, shards...)

	clients := make([]*propClient, 6)
	var readers sync.WaitGroup
	for i := range clients {
		id := fmt.Sprintf("c%d", i)
		pc := &propClient{raw: dialRouter(t, router, id), owner: router.Owner(id), next: 1, owed: map[int64]int{}}
		clients[i] = pc
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				line, err := pc.raw.br.ReadBytes('\n')
				if err != nil {
					return
				}
				var rep linkReply
				if json.Unmarshal(line, &rep) != nil {
					continue
				}
				pc.mu.Lock()
				if s := rep.seq(); pc.owed[s] > 0 {
					pc.owed[s]--
				} else {
					pc.extra++
				}
				fromRouter := rep.Error == "out of order" || strings.HasPrefix(rep.Error, "shard ")
				if fromRouter && (pc.bounced == 0 || rep.Nak < pc.bounced) {
					pc.bounced = rep.Nak
				}
				pc.mu.Unlock()
			}
		}()
	}

	// Each fake shard answers from its own seeded stream: it lets 0-64
	// lines pile up, then answers a random subset in random order with
	// random outcomes, and now and then dies instead.
	type arrival struct {
		conn   net.Conn
		client string
		seq    int64
	}
	var amu sync.Mutex
	arrivals := [2][]arrival{}
	stop := make(chan struct{})
	var responders sync.WaitGroup
	for si, s := range shards {
		si, s := si, s
		srng := rand.New(rand.NewSource(seed*31 + int64(si)))
		responders.Add(1)
		go func() {
			defer responders.Done()
			var held []fakeLine
			threshold := srng.Intn(65)
			//lint:ignore nosystime pacing a scripted shard over real sockets
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				stopping := false
				select {
				case fl := <-s.lines:
					amu.Lock()
					arrivals[si] = append(arrivals[si], arrival{fl.conn, fl.client, fl.seq})
					amu.Unlock()
					held = append(held, fl)
					if len(held) < threshold {
						continue
					}
				case <-tick.C:
				case <-stop:
					stopping = true
				}
				srng.Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
				n := len(held)
				if !stopping {
					n = srng.Intn(len(held) + 1)
				}
				for _, fl := range held[:n] {
					switch k := srng.Intn(10); {
					case stopping || k < 6:
						fl.send(fl.ack())
					case k < 7:
						fl.send(fl.nak(true))
					case k < 8:
						fl.send(fl.nak(false))
					default:
						fl.send(fl.moved(1 - si))
					}
				}
				held = held[n:]
				if stopping {
					return
				}
				if len(held) > 0 && srng.Intn(6) == 0 {
					dead := held[0].conn
					_ = dead.Close() // the link dies with the rest in flight
					kept := held[:0]
					for _, fl := range held {
						if fl.conn != dead {
							kept = append(kept, fl)
						}
					}
					held = kept
				}
				threshold = srng.Intn(65)
			}
		}()
	}

	// Clients write bursts; one whose line the router turned away goes
	// back to the bounced seq first, as a ReliableClient would.
	for round := 0; round < 60; round++ {
		pc := clients[rng.Intn(len(clients))]
		pc.mu.Lock()
		if pc.bounced != 0 {
			pc.next, pc.bounced = pc.bounced, 0
		}
		burst := 1 + rng.Intn(12)
		seqs := make([]int64, burst)
		for i := range seqs {
			seqs[i] = pc.next
			pc.next++
			pc.owed[seqs[i]]++
		}
		pc.wrote = append(pc.wrote, seqs...)
		pc.mu.Unlock()
		pc.raw.send(t, seqs...)
		if rng.Intn(3) == 0 {
			//lint:ignore nosystime letting replies and deaths interleave with the writes
			time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
		}
	}

	settled := func() bool {
		for _, pc := range clients {
			pc.mu.Lock()
			owed := 0
			for _, n := range pc.owed {
				owed += n
			}
			pc.mu.Unlock()
			if owed != 0 {
				return false
			}
		}
		return true
	}
	eventually(t, "one reply per written line", settled)
	linkIdle(t, router)
	close(stop)
	responders.Wait()
	for _, pc := range clients {
		_ = pc.raw.conn.Close()
	}
	readers.Wait()

	amu.Lock()
	defer amu.Unlock()
	for ci, pc := range clients {
		if pc.extra != 0 {
			t.Errorf("client %d got %d replies it was not owed", ci, pc.extra)
		}
		// What its own shard saw of this client, connection by
		// connection, must be a subsequence of what the client wrote.
		id := pc.raw.id
		byConn := map[net.Conn][]int64{}
		var order []net.Conn
		for _, a := range arrivals[pc.owner] {
			if a.client != id {
				continue
			}
			if _, ok := byConn[a.conn]; !ok {
				order = append(order, a.conn)
			}
			byConn[a.conn] = append(byConn[a.conn], a.seq)
		}
		for _, conn := range order {
			i := 0
			for _, s := range byConn[conn] {
				for i < len(pc.wrote) && pc.wrote[i] != s {
					i++
				}
				if i == len(pc.wrote) {
					t.Errorf("client %d: shard %d saw %v on one connection, not in the order written %v",
						ci, pc.owner, byConn[conn], pc.wrote)
					break
				}
				i++
			}
		}
	}
}

// TestRouterNaksAreValidJSON: a router-origin reply can quote what a
// client sent — a parse error names the unknown type verbatim, quotes and
// non-ASCII bytes included — and it must stay decodable, beside the
// shard-down NAK a client name with the same bytes gets.
func TestRouterNaksAreValidJSON(t *testing.T) {
	router, err := StartRouter("127.0.0.1:0", RouterConfig{Map: wire.ShardMap{Shards: 1}})
	if err != nil {
		t.Fatalf("StartRouter: %v", err)
	}
	defer router.Close()
	c := dialRouter(t, router, "te\"n\xffant/h0")
	for _, msg := range []analyzerd.Message{
		{Type: analyzerd.TypeCF, CF: &wire.Flow{Src: 1, Dst: 2}, Client: c.id, Seq: 1},
		{Type: c.id},
	} {
		line, err := json.Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.conn.Write(append(line, '\n')); err != nil {
			t.Fatal(err)
		}
	}
	// recv fails the test on a reply that does not decode. The two replies
	// come from different places (the flush, the parse), in either order.
	for _, rep := range c.recv(t, 2) {
		switch {
		case rep.Nak == 1 && rep.Retry && rep.Error == "shard 0 unavailable":
		case rep.Nak == 0 && !rep.Retry && strings.Contains(rep.Error, `unknown message type "te\"n`):
		default:
			t.Errorf("unexpected reply %+v", rep)
		}
	}
}
