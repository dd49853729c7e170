package analyzerd

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/topo"
)

func sendLine(t *testing.T, conn net.Conn, line string) {
	t.Helper()
	if _, err := fmt.Fprintln(conn, line); err != nil {
		t.Fatal(err)
	}
}

type testReply struct {
	Ack   int64  `json:"ack"`
	Nak   int64  `json:"nak"`
	Error string `json:"error"`
	Retry bool   `json:"retry"`
}

// readReplies reads n reply lines (any order — handler nacks and applier
// acks race on the wire) within a real-network deadline.
func readReplies(t *testing.T, br *bufio.Reader, conn net.Conn, n int) []testReply {
	t.Helper()
	//lint:ignore nosystime reply deadline on a real TCP connection
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	out := make([]testReply, 0, n)
	for i := 0; i < n; i++ {
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("reading reply %d/%d: %v (have %+v)", i+1, n, err, out)
		}
		var rep testReply
		if err := json.Unmarshal(line, &rep); err != nil {
			t.Fatalf("bad reply %q: %v", line, err)
		}
		out = append(out, rep)
	}
	return out
}

func expectReply(t *testing.T, conn net.Conn, want string) {
	t.Helper()
	//lint:ignore nosystime reply deadline on a real TCP connection
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if got := line[:len(line)-1]; got != want {
		t.Fatalf("reply %q, want %q", got, want)
	}
}

// fakeClock is a mutex-guarded manual clock for rate-limit and TTL tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func waitConns(t *testing.T, srv *Server, n int) {
	t.Helper()
	//lint:ignore nosystime polling a real TCP server's connection count
	deadline := time.Now().Add(5 * time.Second)
	//lint:ignore nosystime polling a real TCP server's connection count
	for time.Now().Before(deadline) {
		if srv.Conns() == n {
			return
		}
		//lint:ignore nosystime backoff between polls of the real TCP daemon
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("server still has %d conns, want %d", srv.Conns(), n)
}

// TestOutOfOrderSeqNacked: the applier's contiguity check — a sequence
// gap above a live highwater (created when an earlier message was
// load-shed) must bounce as a retryable nak, never advance the cumulative
// highwater past the hole.
func TestOutOfOrderSeqNacked(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)

	sendLine(t, conn, `{"type":"cf","cf":{"src":1,"dst":2},"seq":1,"client":"h1"}`)
	if rep := readReplies(t, br, conn, 1)[0]; rep.Ack != 1 {
		t.Fatalf("first message reply %+v, want ack 1", rep)
	}
	sendLine(t, conn, `{"type":"cf","cf":{"src":1,"dst":3},"seq":3,"client":"h1"}`)
	reps := readReplies(t, br, conn, 1)
	if reps[0].Nak != 3 || !reps[0].Retry {
		t.Fatalf("gap reply %+v, want retryable nak 3", reps[0])
	}
	if _, _, cfs := srv.Counts(); cfs != 1 {
		t.Fatal("gapped message was ingested")
	}
	sendLine(t, conn, `{"type":"cf","cf":{"src":1,"dst":4},"seq":2,"client":"h1"}`)
	sendLine(t, conn, `{"type":"cf","cf":{"src":1,"dst":3},"seq":3,"client":"h1"}`)
	acked := map[int64]bool{}
	for _, rep := range readReplies(t, br, conn, 2) {
		if rep.Ack == 0 {
			t.Fatalf("in-order resubmission not acked: %+v", rep)
		}
		acked[rep.Ack] = true
	}
	if !acked[2] || !acked[3] {
		t.Fatalf("acks %v, want 2 and 3", acked)
	}
	if ov := srv.Stats().Overloaded; ov != 1 {
		t.Fatalf("Overloaded = %d, want 1 (the gap nak)", ov)
	}
}

// TestSeqBaselineForFreshClient: a client the server has no state for —
// first contact, an ack window evicted by AckTTL, or state lost to a
// non-durable restart — resumes mid-sequence, because its counter is
// process-lifetime monotonic. The applier must accept the first seen seq
// as the new baseline instead of demanding seq 1 forever (the wedge: every
// resubmission NACKed "out of order", the client stuck in backoff until
// its pending buffer overflows).
func TestSeqBaselineForFreshClient(t *testing.T) {
	clock := newFakeClock()
	cfg := DefaultServerConfig()
	cfg.AckTTL = time.Minute
	cfg.Now = clock.Now
	srv, err := ServeWith("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A brand-new client starting above seq 1 (it lived through a server
	// restart that lost the ack windows) baselines immediately.
	conn1, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sendLine(t, conn1, `{"type":"cf","cf":{"src":1,"dst":2},"seq":41,"client":"h1"}`)
	expectReply(t, conn1, `{"ack":41,"client":"h1"}`)
	sendLine(t, conn1, `{"type":"cf","cf":{"src":1,"dst":3},"seq":42,"client":"h1"}`)
	expectReply(t, conn1, `{"ack":42,"client":"h1"}`)
	conn1.Close()
	waitConns(t, srv, 0)

	// Evict h1's window: idle past the TTL, swept by another client's
	// disconnect.
	clock.Advance(2 * time.Minute)
	conn2, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sendLine(t, conn2, `{"type":"cf","cf":{"src":2,"dst":3},"seq":1,"client":"h2"}`)
	expectReply(t, conn2, `{"ack":1,"client":"h2"}`)
	conn2.Close()
	waitConns(t, srv, 0)
	if ev := srv.Stats().AckEvictions; ev != 1 {
		t.Fatalf("AckEvictions = %d, want 1 (h1 idle past TTL)", ev)
	}

	// h1 returns with its counter further along: the evicted window must
	// re-baseline at the first seen seq, and contiguity resumes from there.
	conn3, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn3.Close()
	sendLine(t, conn3, `{"type":"cf","cf":{"src":1,"dst":4},"seq":57,"client":"h1"}`)
	expectReply(t, conn3, `{"ack":57,"client":"h1"}`)
	sendLine(t, conn3, `{"type":"cf","cf":{"src":1,"dst":5},"seq":58,"client":"h1"}`)
	expectReply(t, conn3, `{"ack":58,"client":"h1"}`)
	sendLine(t, conn3, `{"type":"cf","cf":{"src":1,"dst":6},"seq":60,"client":"h1"}`)
	br := bufio.NewReader(conn3)
	if rep := readReplies(t, br, conn3, 1)[0]; rep.Nak != 60 || !rep.Retry {
		t.Fatalf("gap above rebuilt highwater: %+v, want retryable nak 60", rep)
	}
	if _, _, cfs := srv.Counts(); cfs != 5 {
		t.Fatalf("ingested %d cfs, want 5", cfs)
	}
}

// TestRateLimitTokenBucket: with an injected clock, a client gets exactly
// its burst, the over-limit message is nacked retryable, and refilled
// tokens admit the retry.
func TestRateLimitTokenBucket(t *testing.T) {
	clock := newFakeClock()
	cfg := DefaultServerConfig()
	cfg.RateLimit = RateLimit{Rate: 1, Burst: 2}
	cfg.Now = clock.Now
	srv, err := ServeWith("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)

	sendLine(t, conn, `{"type":"cf","cf":{"src":1,"dst":2},"seq":1,"client":"h1"}`)
	sendLine(t, conn, `{"type":"cf","cf":{"src":1,"dst":3},"seq":2,"client":"h1"}`)
	sendLine(t, conn, `{"type":"cf","cf":{"src":1,"dst":4},"seq":3,"client":"h1"}`)
	var naks, acks int
	for _, rep := range readReplies(t, br, conn, 3) {
		switch {
		case rep.Ack > 0:
			acks++
		case rep.Nak == 3 && rep.Retry:
			naks++
		default:
			t.Fatalf("unexpected reply %+v", rep)
		}
	}
	if acks != 2 || naks != 1 {
		t.Fatalf("acks=%d naks=%d, want 2 acks and 1 retryable nak", acks, naks)
	}
	if rl := srv.Stats().RateLimited; rl != 1 {
		t.Fatalf("RateLimited = %d, want 1", rl)
	}

	clock.Advance(2 * time.Second) // refills 2 tokens
	sendLine(t, conn, `{"type":"cf","cf":{"src":1,"dst":4},"seq":3,"client":"h1"}`)
	reps := readReplies(t, br, conn, 1)
	if reps[0].Ack != 3 {
		t.Fatalf("refilled retry reply %+v, want ack 3", reps[0])
	}
	if _, _, cfs := srv.Counts(); cfs != 3 {
		t.Fatalf("ingested %d cfs, want 3", cfs)
	}
}

// TestAckWindowEviction: a disconnected client's dedup state is dropped
// after the idle TTL — the per-client map must not grow forever — and the
// eviction is counted.
func TestAckWindowEviction(t *testing.T) {
	clock := newFakeClock()
	cfg := DefaultServerConfig()
	cfg.AckTTL = time.Minute
	cfg.Now = clock.Now
	srv, err := ServeWith("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn1, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sendLine(t, conn1, `{"type":"cf","cf":{"src":1,"dst":2},"seq":1,"client":"h1"}`)
	expectReply(t, conn1, `{"ack":1,"client":"h1"}`)
	conn1.Close()
	waitConns(t, srv, 0)

	clock.Advance(2 * time.Minute)

	// Another client's disconnect sweeps the idle window.
	conn2, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sendLine(t, conn2, `{"type":"cf","cf":{"src":2,"dst":3},"seq":1,"client":"h2"}`)
	expectReply(t, conn2, `{"ack":1,"client":"h2"}`)
	conn2.Close()
	waitConns(t, srv, 0)

	if ev := srv.Stats().AckEvictions; ev != 1 {
		t.Fatalf("AckEvictions = %d, want 1 (h1 idle past TTL)", ev)
	}
	// h1's window is gone: a fresh seq 1 is accepted as new, not deduped.
	conn3, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn3.Close()
	sendLine(t, conn3, `{"type":"cf","cf":{"src":1,"dst":2},"seq":1,"client":"h1"}`)
	expectReply(t, conn3, `{"ack":1,"client":"h1"}`)
	if d := srv.Stats().Duplicates; d != 0 {
		t.Fatalf("Duplicates = %d after eviction, want 0", d)
	}
}

func TestReliableClientErrQueueFull(t *testing.T) {
	rc, err := NewReliableClient("127.0.0.1:1", ClientConfig{ID: "h1", MaxPending: 2, Sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	f := fabric.FlowKey{Src: 1, Dst: 2}
	if err := rc.SendCF(f); err != nil {
		t.Fatal(err)
	}
	if err := rc.SendCF(f); err != nil {
		t.Fatal(err)
	}
	err = rc.SendCF(f)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third send: %v, want ErrQueueFull", err)
	}
	if rc.Pending() != 2 {
		t.Fatalf("pending %d, want 2", rc.Pending())
	}
}

// TestOverloadBackpressureRetry: a full ingest queue NACKs instead of
// buffering without bound, and the reliable client backs off and
// resubmits until everything lands exactly once.
func TestOverloadBackpressureRetry(t *testing.T) {
	gate := make(chan struct{})
	cfg := DefaultServerConfig()
	cfg.MaxQueue = 1
	cfg.testApplyGate = gate
	srv, err := ServeWith("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var release sync.Once
	open := func() { release.Do(func() { close(gate) }) }
	defer func() {
		open() // never leave the applier parked if the test fails early
		srv.Close()
	}()

	rc, err := NewReliableClient(srv.Addr(), ClientConfig{
		ID:          "h1",
		MaxAttempts: 8,
		AckTimeout:  200 * time.Millisecond,
		Sleep:       func(time.Duration) { open() },
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	for i := 0; i < n; i++ {
		if err := rc.SendCF(fabric.FlowKey{Src: topo.NodeID(i + 1), Dst: 99}); err != nil {
			t.Fatal(err)
		}
	}
	// First attempt slams a parked applier with queue capacity 1: at most
	// two messages can be in flight, the rest must come back as retryable
	// naks. The Sleep hook then releases the applier and the retry drains.
	if err := rc.Flush(); err != nil {
		t.Fatalf("flush never recovered from overload: %v", err)
	}
	if rc.Pending() != 0 {
		t.Fatalf("%d messages still pending", rc.Pending())
	}
	if rc.Stats.Backpressure < n-2 {
		t.Fatalf("client saw %d retryable naks, want >= %d", rc.Stats.Backpressure, n-2)
	}
	st := srv.Stats()
	if st.Overloaded < n-2 {
		t.Fatalf("server Overloaded = %d, want >= %d", st.Overloaded, n-2)
	}
	if _, _, cfs := srv.Counts(); cfs != n {
		t.Fatalf("ingested %d cfs, want %d (exactly once)", cfs, n)
	}
}

// TestWALWedgeStopsAcksAndReadiness: once the WAL wedges, every message
// is NACKed retryable (nothing is acked that recovery could lose),
// /readyz flips so a supervisor restarts the daemon, and — the baseline
// guard — a fresh client whose first message was shed by the wedge cannot
// have its successor accepted as a new baseline: the hole still bounces
// as out of order.
func TestWALWedgeStopsAcksAndReadiness(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultServerConfig()
	cfg.Durability = &DurabilityConfig{Dir: dir, Fsync: FsyncAlways}
	srv, err := ServeWith("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Ready(); err != nil {
		t.Fatalf("fresh server not ready: %v", err)
	}
	srv.wal.wedge(errors.New("injected: disk failure"))
	if err := srv.Ready(); err == nil {
		t.Fatal("server with wedged WAL still ready")
	}

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	sendLine(t, conn, `{"type":"cf","cf":{"src":1,"dst":2},"seq":1,"client":"h1"}`)
	if rep := readReplies(t, br, conn, 1)[0]; rep.Nak != 1 || !rep.Retry {
		t.Fatalf("wedged-WAL reply %+v, want retryable nak 1", rep)
	}
	// seq 2 must not become h1's baseline past the shed seq 1.
	sendLine(t, conn, `{"type":"cf","cf":{"src":1,"dst":3},"seq":2,"client":"h1"}`)
	if rep := readReplies(t, br, conn, 1)[0]; rep.Nak != 2 || !rep.Retry {
		t.Fatalf("successor of shed message: %+v, want retryable nak 2", rep)
	}
	if _, _, cfs := srv.Counts(); cfs != 0 {
		t.Fatalf("wedged server ingested %d cfs, want 0", cfs)
	}
	st := srv.Stats()
	if st.WALErrors != 1 {
		t.Fatalf("WALErrors = %d, want 1 (the shed seq 1)", st.WALErrors)
	}
	if st.Overloaded != 1 {
		t.Fatalf("Overloaded = %d, want 1 (the out-of-order seq 2)", st.Overloaded)
	}
}

func TestReadyFlipsOnDrain(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultServerConfig()
	cfg.Durability = &DurabilityConfig{Dir: dir, Fsync: FsyncAlways}
	srv, err := ServeWith("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Ready(); err != nil {
		t.Fatalf("fresh server not ready: %v", err)
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Ready(); err == nil {
		t.Fatal("drained server still ready")
	}
	if err := srv.Drain(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
