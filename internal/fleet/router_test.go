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

// routerReply is a reply as a client sees it.
type routerReply struct {
	Ack    int64  `json:"ack"`
	Nak    int64  `json:"nak"`
	Client string `json:"client"`
	Error  string `json:"error"`
	Retry  bool   `json:"retry"`
	Moved  bool   `json:"moved"`
	Owner  *int   `json:"owner"`
	Addr   string `json:"addr"`
}

// rawClient speaks the ingest protocol over a bare connection, so a test
// controls exactly which lines share a write.
type rawClient struct {
	id   string
	conn net.Conn
	br   *bufio.Reader
}

func dialRaw(t *testing.T, addr, id string) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
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
func (c *rawClient) recv(t *testing.T, n int) []routerReply {
	t.Helper()
	out := make([]routerReply, 0, n)
	for len(out) < n {
		if err := c.conn.SetReadDeadline(wallDeadline(10 * time.Second)); err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		line, err := c.br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("%s: got %d of %d replies: %v", c.id, len(out), n, err)
		}
		var rep routerReply
		if err := json.Unmarshal(line, &rep); err != nil {
			t.Fatalf("%s: reply %q: %v", c.id, line, err)
		}
		out = append(out, rep)
	}
	return out
}

// recvEnd reads until the peer ends the connection and returns the
// replies that came before the end.
func (c *rawClient) recvEnd(t *testing.T) []routerReply {
	t.Helper()
	var out []routerReply
	for {
		if err := c.conn.SetReadDeadline(wallDeadline(10 * time.Second)); err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		line, err := c.br.ReadBytes('\n')
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				t.Fatalf("%s: the connection was never ended (%d replies)", c.id, len(out))
			}
			return out
		}
		var rep routerReply
		if err := json.Unmarshal(line, &rep); err != nil {
			t.Fatalf("%s: reply %q: %v", c.id, line, err)
		}
		out = append(out, rep)
	}
}

// isPlacement reports whether rep is a router's placement of client's
// submission seq on shard owner at addr.
func isPlacement(rep routerReply, client string, seq int64, owner int, addr string) bool {
	return rep.Moved && rep.Retry && rep.Nak == seq && rep.Client == client &&
		rep.Owner != nil && *rep.Owner == owner && rep.Addr == addr && rep.Ack == 0
}

// TestRouterFirstContactExactlyOnce is the first-contact case: the
// shard's address is unannounced while a client flushes a 16-message
// first batch, so the router ends the connection without a reply. Once
// the shard has announced, the resubmission is placed, and the client
// follows ReliableClient's rules (resubmit everything unacked in seq
// order on the placed connection; a cumulative ack settles everything at
// or below it). Every message must end up in the drained shard's state
// exactly once: a shard with no highwater for the client baselines on the
// first seq it sees, and that is the head.
func TestRouterFirstContactExactlyOnce(t *testing.T) {
	m := wire.ShardMap{Shards: 1}
	dir := t.TempDir()
	srv := startTestShard(t, m, 0, dir)
	defer srv.Close()
	router, err := StartRouter("127.0.0.1:0", RouterConfig{Map: m})
	if err != nil {
		t.Fatalf("StartRouter: %v", err)
	}
	defer router.Stop()

	const n = 16
	pending := make([]int64, n)
	for i := range pending {
		pending[i] = int64(i + 1)
	}
	c := dialRaw(t, router.Addr(), "h00")
	c.send(t, pending...)
	if reps := c.recvEnd(t); len(reps) != 0 {
		t.Errorf("first batch got %+v, want the connection ended with no reply", reps)
	}
	if st := router.Stats(); st.ShardDown != 1 {
		t.Errorf("stats = %+v, want 1 ended connection", st)
	}

	router.SetShardAddr(0, srv.Addr()) // announced before the resubmission
	c = dialRaw(t, router.Addr(), "h00")
	c.send(t, pending...)
	placed := c.recv(t, n)
	for i, rep := range placed {
		if !isPlacement(rep, "h00", pending[i], 0, srv.Addr()) {
			t.Fatalf("reply %d = %+v, want the placement of seq %d on %s", i, rep, pending[i], srv.Addr())
		}
	}
	for attempt := 0; len(pending) > 0 && attempt < 3; attempt++ {
		c = dialRaw(t, placed[0].Addr, "h00")
		c.send(t, pending...)
		var acked int64
		for _, rep := range c.recv(t, len(pending)) {
			acked = max(acked, rep.Ack)
		}
		kept := pending[:0]
		for _, s := range pending {
			if s > acked {
				kept = append(kept, s)
			}
		}
		pending = kept
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
	if got := router.Tallies()[0].Total(); got != n {
		t.Errorf("tally = %d, want the %d placed lines (the ended batch placed none)", got, n)
	}
}

// TestRouterNaksAreValidJSON: a router-origin reply can quote what a
// client sent — a parse error names the unknown type verbatim, a
// placement the client's name, quotes and non-ASCII bytes included — and
// it must stay decodable.
func TestRouterNaksAreValidJSON(t *testing.T) {
	router, err := StartRouter("127.0.0.1:0", RouterConfig{Map: wire.ShardMap{Shards: 1}})
	if err != nil {
		t.Fatalf("StartRouter: %v", err)
	}
	defer router.Stop()
	router.SetShardAddr(0, "127.0.0.1:7000")
	c := dialRaw(t, router.Addr(), "te\"n\xffant/h0")
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
	// The name goes through json.Marshal's invalid-UTF-8 rule on the way
	// in, so the placement names the client the router parsed.
	line, err = json.Marshal(analyzerd.Message{Type: wire.MsgCF, CF: &wire.Flow{Src: 1, Dst: 2}, Seq: 1, Client: c.id})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := analyzerd.ParseMessage(line)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.conn.Write(append(line, '\n')); err != nil {
		t.Fatal(err)
	}
	if rep := c.recv(t, 1)[0]; !isPlacement(rep, msg.Client, 1, 0, "127.0.0.1:7000") || !strings.Contains(rep.Error, `"te\"n`) {
		t.Errorf("placement %+v, want seq 1 of %q placed on 127.0.0.1:7000", rep, msg.Client)
	}
}

// shardProxy stands in front of one in-process shard: the router is told
// its address, so clients are placed on it, and it relays each of their
// connections to the shard's current incarnation. onChunk sees every
// chunk before it is relayed, toward the shard (up) or back (down), so a
// test can abort the shard at an exact line count; it runs on the relay
// goroutines, concurrently.
type shardProxy struct {
	ln      net.Listener
	onChunk func(up bool, chunk []byte)
	wg      sync.WaitGroup

	mu     sync.Mutex
	target string     // guarded by mu
	conns  []net.Conn // guarded by mu
}

func startShardProxy(t *testing.T, target string, onChunk func(up bool, chunk []byte)) *shardProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	p := &shardProxy{ln: ln, onChunk: onChunk, target: target}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			p.wg.Add(1)
			go p.relay(c)
		}
	}()
	t.Cleanup(p.stop)
	return p
}

func (p *shardProxy) addr() string { return p.ln.Addr().String() }

// retarget sends connections accepted from now on to addr.
func (p *shardProxy) retarget(addr string) {
	p.mu.Lock()
	p.target = addr
	p.mu.Unlock()
}

func (p *shardProxy) relay(c net.Conn) {
	defer p.wg.Done()
	p.mu.Lock()
	target := p.target
	p.mu.Unlock()
	s, err := net.Dial("tcp", target)
	if err != nil {
		_ = c.Close() // the shard is down: the client sees its connection end
		return
	}
	p.mu.Lock()
	p.conns = append(p.conns, c, s)
	p.mu.Unlock()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.pipe(c, s, true)
	}()
	p.pipe(s, c, false)
}

// pipe copies from one side to the other until either side fails, then
// ends both.
func (p *shardProxy) pipe(from, to net.Conn, up bool) {
	defer to.Close()
	defer from.Close()
	buf := make([]byte, 64<<10)
	for {
		n, err := from.Read(buf)
		if n > 0 {
			if p.onChunk != nil {
				p.onChunk(up, buf[:n])
			}
			if _, werr := to.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

func (p *shardProxy) stop() {
	_ = p.ln.Close()
	p.mu.Lock()
	for _, c := range p.conns {
		_ = c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// propertySeeds is the seed corpus of TestLinkPropertyOneReplyPerLine;
// -short (the on-push smoke) runs the first few.
var propertySeeds = []int64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233}

// TestLinkPropertyOneReplyPerLine drives random clients through a router
// over an in-process 2-shard fleet while shards are aborted and restarted
// with 0-64 lines in flight to them. A link is any connection a client
// writes on, to the router or to the shard it was placed on, and every
// line on it gets one reply or the link ends. The properties: every
// message every client submitted is in the drained state exactly once;
// the router writes nothing but placements, each naming the owning
// shard's address and the line's own client and seq, and refusals; and
// the tallies count the placements the clients read.
func TestLinkPropertyOneReplyPerLine(t *testing.T) {
	seeds := propertySeeds
	if testing.Short() {
		seeds = seeds[:4]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) { linkProperty(t, seed) })
	}
}

// propKill aborts shard once armed and threshold more lines have been
// relayed toward it.
type propKill struct {
	shard, threshold int
}

func linkProperty(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	m := wire.ShardMap{Shards: 2}
	ring, err := wire.NewHashRing(m)
	if err != nil {
		t.Fatal(err)
	}
	dirs := []string{t.TempDir(), t.TempDir()}
	config := func(i int) analyzerd.ServerConfig {
		cfg := testShardConfig(m, i, dirs[i])
		cfg.Durability.Fsync = analyzerd.FsyncOff // an in-process abort loses nothing the OS has
		return cfg
	}
	var kills []propKill
	for k := 1 + rng.Intn(3); k > 0; k-- {
		kills = append(kills, propKill{shard: rng.Intn(2), threshold: rng.Intn(65)})
	}

	// The chaos: kill j is armed once kill j-1 has fired; it fires on the
	// first chunk, either way, once threshold lines have gone toward its
	// shard since it was armed, before that chunk is relayed.
	var (
		kmu      sync.Mutex
		srvs     = make([]*analyzerd.Server, 2)
		proxies  = make([]*shardProxy, 2)
		up, down [2]int // lines relayed toward and back from each shard's incarnation
		armedAt  int    // lines toward the next kill's shard when it was armed
		fired    int
		inflight []int
	)
	var upTotal [2]int
	onChunk := func(i int) func(bool, []byte) {
		return func(toShard bool, chunk []byte) {
			kmu.Lock()
			defer kmu.Unlock()
			n := bytes.Count(chunk, []byte{'\n'})
			if toShard {
				up[i] += n
				upTotal[i] += n
			} else {
				down[i] += n
			}
			if fired == len(kills) || kills[fired].shard != i || upTotal[i]-armedAt < kills[fired].threshold {
				return
			}
			inflight = append(inflight, up[i]-down[i])
			srvs[i].Abort() // SIGKILL stand-in: connections die, WAL abandoned
			srv, err := analyzerd.ServeWith("127.0.0.1:0", config(i))
			if err != nil {
				t.Errorf("restarting shard %d: %v", i, err) // not Fatal: a relay goroutine
				return
			}
			srvs[i] = srv
			proxies[i].retarget(srv.Addr())
			up[i], down[i] = 0, 0
			if fired++; fired < len(kills) {
				armedAt = upTotal[kills[fired].shard]
			}
		}
	}
	for i := range srvs {
		srv, err := analyzerd.ServeWith("127.0.0.1:0", config(i))
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = srv
		proxies[i] = startShardProxy(t, srv.Addr(), onChunk(i))
	}
	defer func() {
		kmu.Lock()
		defer kmu.Unlock()
		for _, s := range srvs {
			_ = s.Close()
		}
	}()
	router, err := StartRouter("127.0.0.1:0", RouterConfig{Map: m})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Stop()
	for i, p := range proxies {
		router.SetShardAddr(i, p.addr())
	}
	// A tap in front of the router keeps every byte the router writes.
	var tmu sync.Mutex
	var tapped bytes.Buffer
	tap := startShardProxy(t, router.Addr(), func(toRouter bool, chunk []byte) {
		if !toRouter {
			tmu.Lock()
			tapped.Write(chunk)
			tmu.Unlock()
		}
	})

	// Each client runs on its own goroutine: bursts of 1-24 messages, a
	// Flush after each, and now and then a Close, after which the next
	// Flush redials where the client was placed.
	const nClients, rounds = 6, 8
	names := make([]string, nClients)
	sent := make([]int64, nClients)
	errs := make([]error, nClients)
	var wg sync.WaitGroup
	for ci := range names {
		names[ci] = fmt.Sprintf("c%d-%d", ci, rng.Intn(1000))
		crng := rand.New(rand.NewSource(seed*31 + int64(ci)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			rc, err := analyzerd.NewReliableClient(tap.addr(), analyzerd.ClientConfig{
				ID: names[ci], MaxAttempts: 20, BackoffBase: time.Millisecond, BackoffMax: 20 * time.Millisecond,
			})
			if err != nil {
				errs[ci] = err
				return
			}
			for r := 0; r < rounds && errs[ci] == nil; r++ {
				for k := 1 + crng.Intn(24); k > 0; k-- {
					sent[ci]++
					if err := rc.SendCF(hostFlow(int(sent[ci]))); err != nil {
						errs[ci] = err
					}
				}
				if crng.Intn(4) == 0 {
					errs[ci] = rc.Close()
				} else {
					errs[ci] = rc.Flush()
				}
			}
			if err := rc.Close(); errs[ci] == nil {
				errs[ci] = err
			}
		}()
	}
	// Lines the router refuses share the tap with the placements.
	bad := dialRaw(t, tap.addr(), "")
	if _, err := bad.conn.Write([]byte("{not json\n" + `{"type":"cf","cf":{"src":1},"client":"h1"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	refusals := bad.recv(t, 2)
	wg.Wait()
	for ci, err := range errs {
		if err != nil {
			t.Fatalf("client %s: %v", names[ci], err)
		}
	}
	for _, rep := range refusals {
		if rep.Error == "" || rep.Nak != 0 || rep.Retry || rep.Moved {
			t.Errorf("refusal %+v, want a bare {\"error\":…}", rep)
		}
	}
	router.Stop()
	tap.stop()

	// The router wrote only placements and refusals.
	tmu.Lock()
	lines := strings.Split(strings.TrimSuffix(tapped.String(), "\n"), "\n")
	tmu.Unlock()
	sentBy := map[string]int64{}
	for ci, name := range names {
		sentBy[name] = sent[ci]
	}
	placements := 0
	for _, line := range lines {
		var rep routerReply
		if err := json.Unmarshal([]byte(line), &rep); err != nil {
			t.Fatalf("router wrote %q: %v", line, err)
		}
		if rep.Moved {
			owner := ring.Owner(rep.Client)
			if !isPlacement(rep, rep.Client, rep.Nak, owner, proxies[owner].addr()) || rep.Nak < 1 || rep.Nak > sentBy[rep.Client] {
				t.Errorf("router wrote %s, want the placement of a sent seq on shard %d at %s", line, owner, proxies[owner].addr())
			}
			placements++
			continue
		}
		if rep.Error == "" || rep.Nak != 0 || rep.Ack != 0 || rep.Retry || rep.Addr != "" {
			t.Errorf("router wrote %s, want a placement or a refusal", line)
		}
	}
	tallied := 0
	for _, tl := range router.Tallies() {
		tallied += tl.Total()
	}
	if tallied != placements || placements == 0 {
		t.Errorf("tallies sum to %d, the router wrote %d placements", tallied, placements)
	}

	// Every message submitted is in the drained state exactly once.
	kmu.Lock()
	states := drainStates(t, m, srvs, dirs)
	kmu.Unlock()
	seen := map[string]map[int64]int{}
	for _, st := range states {
		for _, sm := range st.Messages {
			if seen[sm.Client] == nil {
				seen[sm.Client] = map[int64]int{}
			}
			seen[sm.Client][sm.Seq]++
		}
	}
	for ci, name := range names {
		for s := int64(1); s <= sent[ci]; s++ {
			if seen[name][s] != 1 {
				t.Errorf("%s seq %d is in the drained state %d times, want exactly once", name, s, seen[name][s])
			}
		}
		if len(seen[name]) != int(sent[ci]) {
			t.Errorf("%s: %d seqs drained, %d sent", name, len(seen[name]), sent[ci])
		}
	}
	t.Logf("%d placements, %d of %d kills fired with %v lines in flight", placements, fired, len(kills), inflight)
}
