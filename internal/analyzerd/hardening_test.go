package analyzerd

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/scenario"
	"vedrfolnir/internal/topo"
)

// runContentionCase simulates one contention case and returns its analyzer
// inputs (records, reports, collective flows).
func runContentionCase(t *testing.T, cfg scenario.Config) scenario.Result {
	t.Helper()
	cs, err := scenario.GenerateCase(scenario.Contention, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(cs, scenario.Vedrfolnir, cfg, scenario.DefaultRunOptions(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 || len(res.Reports) == 0 || len(res.CFs) == 0 {
		t.Fatal("setup: contention case produced no analyzer inputs")
	}
	return res
}

// waitStats polls until the predicate holds over the server's stats or the
// deadline passes.
func waitStats(t *testing.T, s *Server, what string, ok func(ServerStats) bool) {
	t.Helper()
	//lint:ignore nosystime deadline for a real TCP server's background work
	deadline := time.Now().Add(5 * time.Second)
	//lint:ignore nosystime polling a real network service, not simulated state
	for time.Now().Before(deadline) {
		if ok(s.Stats()) {
			return
		}
		//lint:ignore nosystime backoff between polls of the real TCP daemon
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("stats never reached %s: %+v", what, s.Stats())
}

// TestStalledClientTimesOut: a connection that stops delivering bytes is
// dropped by the per-read deadline — the handler does not sit on it
// forever.
func TestStalledClientTimesOut(t *testing.T) {
	srv, err := ServeWith("127.0.0.1:0", ServerConfig{ReadTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send half a line, then stall.
	if _, err := conn.Write([]byte(`{"type":"cf"`)); err != nil {
		t.Fatal(err)
	}
	waitStats(t, srv, "TimedOut > 0", func(st ServerStats) bool { return st.TimedOut > 0 })
}

// TestCloseNotBlockedByStalledClient: even with the read deadline disabled,
// Close severs live connections out from under their handlers instead of
// waiting for a stalled peer.
func TestCloseNotBlockedByStalledClient(t *testing.T) {
	srv, err := ServeWith("127.0.0.1:0", ServerConfig{}) // no read timeout
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"type":"cf"`)); err != nil { // half a line, then stall
		t.Fatal(err)
	}
	//lint:ignore nosystime let the real TCP server enter its blocking read first
	time.Sleep(10 * time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	//lint:ignore nosystime watchdog on a real Close call that must not hang
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on a stalled client")
	}
}

// TestOversizedLineTerminatesConnection: a line beyond MaxLineBytes kills
// that connection (counted), without growing the scanner buffer unboundedly
// and without poisoning the listener for other clients.
func TestOversizedLineTerminatesConnection(t *testing.T) {
	srv, err := ServeWith("127.0.0.1:0", ServerConfig{MaxLineBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(strings.Repeat("x", 8<<10) + "\n")); err != nil {
		t.Fatal(err)
	}
	waitStats(t, srv, "Oversized > 0", func(st ServerStats) bool { return st.Oversized > 0 })
	// The listener still serves a well-behaved client.
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sendLine(t, c, `{"type":"cf","cf":{"src":1,"dst":2,"sport":7,"dport":8,"proto":17},"seq":1,"client":"h1"}`)
	expectReply(t, c, `{"ack":1,"client":"h1"}`)
	waitIngested(t, srv, 0, 0, 1)
}

// TestMalformedLineSkipped: garbage on the wire is counted and skipped; the
// same connection keeps working and later valid messages still ingest.
func TestMalformedLineSkipped(t *testing.T) {
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
	lines := "not json at all\n" + // malformed
		`{"type":"bogus","seq":1,"client":"h1"}` + "\n" + // unknown type
		`{"type":"cf","cf":{"src":1,"dst":2,"sport":7,"dport":8,"proto":17},"seq":1,"client":"h1"}` + "\n"
	if _, err := conn.Write([]byte(lines)); err != nil {
		t.Fatal(err)
	}
	waitIngested(t, srv, 0, 0, 1)
	if st := srv.Stats(); st.Malformed != 2 {
		t.Fatalf("Malformed = %d, want 2: %+v", st.Malformed, st)
	}
}

// flakyProxy forwards client↔server traffic but severs the first
// connection after forwarding cutLines lines from the client, simulating a
// connection failure mid-submission. Later connections forward everything.
func flakyProxy(t *testing.T, target string, cutLines int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		first := true
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s, err := net.Dial("tcp", target)
			if err != nil {
				c.Close()
				continue
			}
			go io.Copy(c, s) // server→client (acks)
			go func(c, s net.Conn, limited bool) {
				defer c.Close()
				defer s.Close()
				sc := bufio.NewScanner(c)
				n := 0
				for sc.Scan() {
					if _, err := fmt.Fprintf(s, "%s\n", sc.Bytes()); err != nil {
						return
					}
					if n++; limited && n >= cutLines {
						return
					}
				}
			}(c, s, first)
			first = false
		}
	}()
	return ln.Addr().String()
}

// TestReliableClientExactlyOnce: a connection failure mid-flush triggers
// reconnect + resubmission, and the server's per-client ack highwater
// suppresses anything it had already ingested — the final counts are exact.
func TestReliableClientExactlyOnce(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy := flakyProxy(t, srv.Addr(), 2)

	rc, err := NewReliableClient(proxy, ClientConfig{
		ID:    "agent-0",
		Sleep: func(time.Duration) {}, // no real backoff in tests
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		flow := fabric.FlowKey{Src: topo.NodeID(i), Dst: 99, SrcPort: 1000 + uint16(i), DstPort: 1, Proto: 17}
		if err := rc.SendCF(flow); err != nil {
			t.Fatal(err)
		}
	}
	if rc.Pending() != n {
		t.Fatalf("pending = %d before flush", rc.Pending())
	}
	if err := rc.Flush(); err != nil {
		t.Fatalf("flush through flaky proxy: %v", err)
	}
	if rc.Pending() != 0 {
		t.Fatalf("pending = %d after successful flush", rc.Pending())
	}
	if rc.Stats.Reconnects == 0 || rc.Stats.Resubmitted == 0 {
		t.Fatalf("cut connection never exercised the retry path: %+v", rc.Stats)
	}
	// Exactly once: 5 distinct flows, no more, no less — duplicates from
	// the resubmission were suppressed by the ack highwater.
	if _, _, cfs := srv.Counts(); cfs != n {
		t.Fatalf("cfs = %d, want exactly %d", cfs, n)
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReliableClientBackoffExhaustion: with nothing listening, Flush fails
// after MaxAttempts with exponential backoff between attempts, and the
// pending buffer survives for a later retry.
func TestReliableClientBackoffExhaustion(t *testing.T) {
	// Reserve an address with nothing behind it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var sleeps []time.Duration
	rc, err := NewReliableClient(addr, ClientConfig{
		ID:          "agent-1",
		MaxAttempts: 4,
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  25 * time.Millisecond,
		Sleep:       func(d time.Duration) { sleeps = append(sleeps, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.SendCF(fabric.FlowKey{Src: 1, Dst: 2, Proto: 17}); err != nil {
		t.Fatal(err)
	}
	if err := rc.Flush(); err == nil {
		t.Fatal("flush succeeded with nothing listening")
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 25 * time.Millisecond}
	if len(sleeps) != len(want) {
		t.Fatalf("sleeps = %v, want %v", sleeps, want)
	}
	for i := range want {
		if sleeps[i] != want[i] {
			t.Fatalf("backoff %d = %v, want %v (doubling, capped)", i, sleeps[i], want[i])
		}
	}
	if rc.Pending() != 1 {
		t.Fatalf("pending buffer lost on failure: %d", rc.Pending())
	}
}

// TestReliableClientRedialsStaleConnAtOnce: a connection kept from an
// earlier Flush that the server has closed since (here: its idle read
// deadline) costs the next Flush a redial but no backoff sleep.
func TestReliableClientRedialsStaleConnAtOnce(t *testing.T) {
	srv, err := ServeWith("127.0.0.1:0", ServerConfig{ReadTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var sleeps []time.Duration
	rc, err := NewReliableClient(srv.Addr(), ClientConfig{
		ID:    "agent-2",
		Sleep: func(d time.Duration) { sleeps = append(sleeps, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	for i := 0; i < 2; i++ {
		if err := rc.SendCF(fabric.FlowKey{Src: topo.NodeID(i + 1), Dst: 2, Proto: 17}); err != nil {
			t.Fatal(err)
		}
		if err := rc.Flush(); err != nil {
			t.Fatalf("flush %d: %v", i, err)
		}
		if i == 0 {
			waitStats(t, srv, "TimedOut > 0", func(st ServerStats) bool { return st.TimedOut > 0 })
		}
	}
	if len(sleeps) != 0 || rc.Stats.Reconnects != 1 {
		t.Errorf("sleeps = %v, stats = %+v: want one redial and no backoff", sleeps, rc.Stats)
	}
	if _, _, cfs := srv.Counts(); cfs != 2 {
		t.Errorf("cfs = %d, want 2", cfs)
	}
}

// TestReliableClientAllTypes: the sequenced path carries all three message
// types and a drained client's second Flush is a no-op.
func TestReliableClientAllTypes(t *testing.T) {
	cfg := testConfig()
	res := runContentionCase(t, cfg)
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rc, err := NewReliableClient(srv.Addr(), ClientConfig{ID: "agent-2"})
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.SendStep(res.Records[0]); err != nil {
		t.Fatal(err)
	}
	if err := rc.SendReport(res.Reports[0]); err != nil {
		t.Fatal(err)
	}
	var cf fabric.FlowKey
	for k := range res.CFs {
		cf = k
		break
	}
	if err := rc.SendCF(cf); err != nil {
		t.Fatal(err)
	}
	if err := rc.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := rc.Flush(); err != nil { // drained: no-op
		t.Fatal(err)
	}
	if recs, reps, cfs := srv.Counts(); recs != 1 || reps != 1 || cfs != 1 {
		t.Fatalf("counts = %d/%d/%d, want 1/1/1", recs, reps, cfs)
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
}
