package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
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
	router, err := StartRouter("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("StartRouter: %v", err)
	}
	t.Cleanup(router.Close)
	for i, s := range shards {
		router.SetShardAddr(i, s.addr())
	}
	return router
}

// recvEnd reads until the router ends the connection and returns the
// replies that came before the end.
func (c *rawClient) recvEnd(t *testing.T) []linkReply {
	t.Helper()
	var out []linkReply
	for {
		if err := c.conn.SetReadDeadline(wallDeadline(10 * time.Second)); err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		line, err := c.br.ReadBytes('\n')
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				t.Fatalf("%s: the router never ended the connection (%d replies)", c.id, len(out))
			}
			return out
		}
		var rep linkReply
		if err := json.Unmarshal(line, &rep); err != nil {
			t.Fatalf("%s: reply %q: %v", c.id, line, err)
		}
		out = append(out, rep)
	}
}

// linkIdle asserts the router holds nothing in flight anywhere.
func linkIdle(t *testing.T, r *Router) {
	t.Helper()
	eventually(t, "inflight to drain", func() bool { return r.inflight.Load() == 0 })
	r.mu.Lock()
	defer r.mu.Unlock()
	for s := range r.links {
		s.mu.Lock()
		owed := s.owed
		s.mu.Unlock()
		if owed != 0 {
			t.Errorf("a connection to shard %d still owes %d replies", s.shard, owed)
		}
	}
}

// TestLinkDemuxUnderReordering: a shard's replies are not FIFO. The fake
// answers a batch from two client connections in a permuted order —
// including a handler-side duplicate-ack for hb ahead of the applier's
// ack for an earlier line of ha — and every client connection must still
// receive exactly its own replies, with each relayed line counted.
func TestLinkDemuxUnderReordering(t *testing.T) {
	shard := startFakeShard(t)
	router := startLinkRouter(t, RouterConfig{}, shard)
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
	if got := router.Tallies()[0].Total(); got != 8 {
		t.Errorf("tally = %d, want the 8 answered lines", got)
	}

	// A resubmission of something already acknowledged is relayed and,
	// answered again, counted again.
	ha.send(t, 4)
	dup := shard.take(t, 1)[0]
	dup.send(dup.ack())
	if rep := ha.recv(t, 1)[0]; rep.Ack != 4 {
		t.Errorf("duplicate reply = %+v, want ack 4", rep)
	}
	if got := router.Tallies()[0].Total(); got != 9 {
		t.Errorf("tally after a duplicate = %d, want 9", got)
	}
	if st := router.Stats(); st.Forwarded != 9 || st.ShardDown != 0 {
		t.Errorf("stats = %+v, want 9 forwarded and no failures", st)
	}
	if n := shard.accepted(); n != 2 {
		t.Errorf("fake shard saw %d connections, want one per client connection", n)
	}
}

// TestLinkDeathFailsEveryInFlightLine: a shard connection that dies with
// lines in flight ends the client connection that owns it — no reply of
// the router's own for the lost lines — and nobody else's: inflight
// returns to 0, ShardDown counts the one ended connection, and the
// client's resubmission goes out on a fresh shard connection.
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
	_ = answered.conn.Close() // ha's shard connection dies with seqs 1 and 3 in flight

	if reps := ha.recvEnd(t); len(reps) != 0 {
		t.Errorf("ha got %+v after its shard connection died, want the connection ended", reps)
	}
	for _, fl := range lines {
		if fl.client == "hb" {
			fl.send(fl.ack())
		}
	}
	for i, rep := range hb.recv(t, 2) {
		if rep.Client != "hb" || rep.Ack == 0 {
			t.Errorf("hb reply %d = %+v, want its ack: another connection's death is not hb's", i, rep)
		}
	}
	linkIdle(t, router)
	if st := router.Stats(); st.ShardDown != 1 {
		t.Errorf("ShardDown = %d, want 1 (one client connection ended)", st.ShardDown)
	}

	// ha reconnects and resubmits everything unacked, in seq order.
	ha = dialRouter(t, router, "ha")
	ha.send(t, 1, 2, 3)
	for _, fl := range shard.take(t, 3) {
		if fl.conn == answered.conn {
			t.Fatalf("line %+v arrived on the dead connection", fl)
		}
		fl.send(fl.ack())
	}
	for i, rep := range ha.recv(t, 3) {
		if rep.Ack != int64(i+1) {
			t.Errorf("ha resubmission reply %d = %+v, want ack %d", i, rep, i+1)
		}
	}
	linkIdle(t, router)
	if st := router.Stats(); st.ShardDown != 1 {
		t.Errorf("stats = %+v, want the redial to end nothing further", st)
	}
	if n := shard.accepted(); n != 3 {
		t.Errorf("fake shard saw %d connections, want 3", n)
	}
}

// TestRouterStopWaitsForInflight: Stop returns only once every line past
// the gate has been answered, so whatever a shard acknowledged late is in
// the tallies (and in its WAL) by the time the drain reads them.
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

// TestRouterFirstContactExactlyOnce is the first-contact case: the
// shard's address is unannounced while a client flushes the head of its
// first batch, so the router ends the connection without a reply, and is
// announced before the client resubmits. The client follows
// ReliableClient's rules (reconnect and resubmit everything unacked in
// seq order; a cumulative ack settles everything at or below it), and
// every message must end up in the drained shard's state exactly once: a
// shard with no
// highwater for the client baselines on the first seq it sees, and that
// is the head.
func TestRouterFirstContactExactlyOnce(t *testing.T) {
	m := wire.ShardMap{Shards: 1}
	dir := t.TempDir()
	srv := startTestShard(t, m, 0, dir)
	defer srv.Close()
	router, err := StartRouter("127.0.0.1:0", RouterConfig{Map: m})
	if err != nil {
		t.Fatalf("StartRouter: %v", err)
	}
	defer router.Close()

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

	c := dialRouter(t, router, "h00")
	c.send(t, pending[:n/2]...)
	if reps := c.recvEnd(t); len(reps) != 0 {
		t.Errorf("head replies %+v, want the connection ended with no sequenced reply", reps)
	}
	router.SetShardAddr(0, srv.Addr()) // announced before the resubmission
	for attempt := 0; len(pending) > 0 && attempt < 3; attempt++ {
		c = dialRouter(t, router, "h00")
		c.send(t, pending...)
		settle(c.recv(t, len(pending)))
	}
	if len(pending) != 0 {
		t.Fatalf("%d messages never acknowledged", len(pending))
	}

	router.Stop()
	seen := map[int64]int{}
	for _, sm := range drainStates(t, m, []*analyzerd.Server{srv}, []string{dir})[0].Messages {
		seen[sm.Seq]++
	}
	for s := int64(1); s <= n; s++ {
		if seen[s] != 1 {
			t.Errorf("seq %d is in the drained state %d times, want exactly once", s, seen[s])
		}
	}
	// The head, written on no shard connection, was never answered and
	// is not counted.
	if got := router.Tallies()[0].Total(); got != n {
		t.Errorf("tally = %d, want each of the %d messages once", got, n)
	}
	if st := router.Stats(); st.ShardDown != 1 {
		t.Errorf("stats = %+v, want 1 ended connection", st)
	}
}

// propertySeeds is the seed corpus of TestLinkPropertyOneReplyPerLine;
// -short (the on-push smoke) runs the first few.
var propertySeeds = []int64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233}

// TestLinkPropertyOneReplyPerLine drives random interleavings of clients,
// acks, retryable and permanent NAKs, moved NAKs and shard-connection
// deaths with 0-64 lines in flight through a router over two scripted
// shards, and checks the router's invariants: every line a client
// connection wrote gets exactly one reply, relayed to that connection, or
// the connection ends; a connection ends exactly when one of its shard
// connections died; each shard connection carries a prefix of what its
// client connection wrote, in order; inflight returns to 0; and the sum
// of the tallies, Forwarded and the replies the clients received are one
// count.
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

// propConn is one client connection of the property test: what it wrote,
// in order, how many replies each seq is still owed, how many replies it
// received, and whether the router ended it.
type propConn struct {
	raw *rawClient

	mu    sync.Mutex
	wrote []int64       // guarded by mu
	owed  map[int64]int // guarded by mu
	got   int           // guarded by mu: reply lines received
	extra int           // guarded by mu: replies nothing was owed for
	ended bool          // guarded by mu
}

func linkProperty(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	shards := []*fakeShard{startFakeShard(t), startFakeShard(t)}
	router := startLinkRouter(t, RouterConfig{}, shards...)

	var readers sync.WaitGroup
	var conns []*propConn
	byLine := map[fakeKey]*propConn{} // who wrote each (client, seq)
	open := func(id string) *propConn {
		pc := &propConn{raw: dialRouter(t, router, id), owed: map[int64]int{}}
		conns = append(conns, pc)
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				line, err := pc.raw.br.ReadBytes('\n')
				if err != nil {
					pc.mu.Lock()
					pc.ended = true
					pc.mu.Unlock()
					return
				}
				var rep linkReply
				if json.Unmarshal(line, &rep) != nil {
					continue
				}
				pc.mu.Lock()
				pc.got++
				if s := rep.seq(); rep.Client == pc.raw.id && pc.owed[s] > 0 {
					pc.owed[s]--
				} else {
					pc.extra++
				}
				pc.mu.Unlock()
			}
		}()
		return pc
	}
	ids := make([]string, 6)
	current := make([]*propConn, len(ids))
	next := make([]int64, len(ids))
	for i := range ids {
		ids[i] = fmt.Sprintf("c%d", i)
		current[i], next[i] = open(ids[i]), 1
	}

	// Each fake shard answers from its own seeded stream: it lets 0-64
	// lines pile up, then answers a random subset in random order with
	// random outcomes, and now and then kills a connection instead.
	var amu sync.Mutex
	arrivals := map[net.Conn][]fakeKey{}
	killed := map[net.Conn]bool{}
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
					arrivals[fl.conn] = append(arrivals[fl.conn], fakeKey{fl.client, fl.seq})
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
					amu.Lock()
					killed[dead] = true
					amu.Unlock()
					_ = dead.Close() // the shard connection dies with the rest in flight
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

	// Clients write bursts; one whose connection the router ended dials
	// again and goes on with fresh seqs.
	for round := 0; round < 60; round++ {
		i := rng.Intn(len(ids))
		pc := current[i]
		pc.mu.Lock()
		ended := pc.ended
		pc.mu.Unlock()
		if ended {
			pc = open(ids[i])
			current[i] = pc
		}
		burst := 1 + rng.Intn(12)
		seqs := make([]int64, burst)
		var b bytes.Buffer
		pc.mu.Lock()
		for j := range seqs {
			seqs[j] = next[i]
			next[i]++
			pc.owed[seqs[j]]++
			byLine[fakeKey{ids[i], seqs[j]}] = pc
			b.WriteString(cfLine(ids[i], seqs[j]))
		}
		pc.wrote = append(pc.wrote, seqs...)
		pc.mu.Unlock()
		_, _ = pc.raw.conn.Write(b.Bytes()) // a connection the router just ended may refuse it
		if rng.Intn(3) == 0 {
			//lint:ignore nosystime letting replies and deaths interleave with the writes
			time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
		}
	}

	// A connection is settled once it is ended or owes nothing.
	settled := func() bool {
		for _, pc := range conns {
			pc.mu.Lock()
			owed := 0
			for _, n := range pc.owed {
				owed += n
			}
			done := pc.ended || owed == 0
			pc.mu.Unlock()
			if !done {
				return false
			}
		}
		return true
	}
	eventually(t, "one reply per written line", settled)
	linkIdle(t, router)
	close(stop)
	responders.Wait()

	amu.Lock()
	defer amu.Unlock()
	lost := map[*propConn]bool{} // client connections that lost a shard connection
	for conn, keys := range arrivals {
		owner := byLine[keys[0]]
		if killed[conn] {
			lost[owner] = true
		}
		// A shard connection carries a prefix of what its client
		// connection wrote, in order.
		owner.mu.Lock()
		want := owner.wrote
		owner.mu.Unlock()
		for j, k := range keys {
			if byLine[k] != owner || j >= len(want) || k.seq != want[j] {
				t.Errorf("a shard connection carried %v, not a prefix of its client connection's %v", keys, want)
				break
			}
		}
	}
	for ci, pc := range conns {
		pc.mu.Lock()
		extra, ended := pc.extra, pc.ended
		pc.mu.Unlock()
		if extra != 0 {
			t.Errorf("connection %d (%s) got %d replies it was not owed", ci, pc.raw.id, extra)
		}
		if ended != lost[pc] {
			t.Errorf("connection %d (%s): ended = %v, but lost a shard connection = %v", ci, pc.raw.id, ended, lost[pc])
		}
	}
	t.Logf("%d client connections, %d ended by %d shard-connection deaths, %d lines",
		len(conns), len(lost), len(killed), len(byLine))
	for _, pc := range conns {
		_ = pc.raw.conn.Close()
	}
	readers.Wait()

	received := int64(0)
	for _, pc := range conns {
		received += int64(pc.got) // the readers are done
	}
	tallied := int64(0)
	for _, tl := range router.Tallies() {
		tallied += int64(tl.Total())
	}
	if st := router.Stats(); tallied != st.Forwarded || st.Forwarded != received {
		t.Errorf("tallies sum to %d, Forwarded = %d, clients received %d replies: want one count",
			tallied, st.Forwarded, received)
	}
}

// fakeKey is a line's (client, seq).
type fakeKey struct {
	client string
	seq    int64
}

// TestRouterNaksAreValidJSON: a router-origin reply can quote what a
// client sent — a parse error names the unknown type verbatim, quotes and
// non-ASCII bytes included — and it must stay decodable.
func TestRouterNaksAreValidJSON(t *testing.T) {
	router, err := StartRouter("127.0.0.1:0", RouterConfig{Map: wire.ShardMap{Shards: 1}})
	if err != nil {
		t.Fatalf("StartRouter: %v", err)
	}
	defer router.Close()
	c := dialRouter(t, router, "te\"n\xffant/h0")
	line, err := json.Marshal(analyzerd.Message{Type: c.id})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.conn.Write(append(line, '\n')); err != nil {
		t.Fatal(err)
	}
	// recv fails the test on a reply that does not decode.
	if rep := c.recv(t, 1)[0]; rep.Nak != 0 || rep.Retry || !strings.Contains(rep.Error, `unknown message type "te\"n`) {
		t.Errorf("unexpected reply %+v", rep)
	}
}
