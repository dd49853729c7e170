package analyzerd

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/topo"
	"vedrfolnir/internal/wire"
)

// scriptedPeer is a listener that answers every line it reads with
// answer(seq, client) and records the seqs in arrival order. It stands in
// for a fleet router (answering with placements) or a shard (acking).
type scriptedPeer struct {
	ln     net.Listener
	answer func(seq int64, client string) string

	mu    sync.Mutex
	seqs  []int64    // guarded by mu
	conns []net.Conn // guarded by mu
}

func startPeer(t *testing.T, answer func(seq int64, client string) string) *scriptedPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &scriptedPeer{ln: ln, answer: answer}
	t.Cleanup(func() {
		_ = ln.Close()
		p.drop()
	})
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			p.mu.Lock()
			p.conns = append(p.conns, c)
			p.mu.Unlock()
			go p.serve(c)
		}
	}()
	return p
}

func (p *scriptedPeer) serve(c net.Conn) {
	sc := bufio.NewScanner(c)
	for sc.Scan() {
		msg, err := ParseMessage(sc.Bytes())
		if err != nil {
			return
		}
		p.mu.Lock()
		p.seqs = append(p.seqs, msg.Seq)
		p.mu.Unlock()
		if _, err := fmt.Fprintln(c, p.answer(msg.Seq, msg.Client)); err != nil {
			return
		}
	}
}

func (p *scriptedPeer) addr() string { return p.ln.Addr().String() }

// drop closes every connection accepted so far, as a shard that dies does.
func (p *scriptedPeer) drop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		_ = c.Close()
	}
}

// seen returns the seqs read so far and the connections accepted.
func (p *scriptedPeer) seen() (seqs []int64, conns int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]int64(nil), p.seqs...), len(p.conns)
}

// placingHome answers every line with a placement on addr, as a fleet
// router does.
func placingHome(t *testing.T, addr string) *scriptedPeer {
	return startPeer(t, func(seq int64, client string) string {
		owner := 1
		return string(wire.AppendReply(nil, &wire.ReplyLine{
			Nak: seq, Client: client, Moved: true, Owner: &owner, Map: &wire.ShardMap{Shards: 2},
			Addr: addr, Error: "placed", Retry: true,
		}))
	})
}

// ackingShard acks every line, as a shard does.
func ackingShard(t *testing.T) *scriptedPeer {
	return startPeer(t, func(seq int64, client string) string {
		return fmt.Sprintf(`{"ack":%d,"client":%q}`, seq, client)
	})
}

// placementClient is a client of home with n flows pending and its
// backoff sleeps recorded.
func placementClient(t *testing.T, home string, maxAttempts, n int) (*ReliableClient, *[]time.Duration) {
	t.Helper()
	sleeps := &[]time.Duration{}
	rc, err := NewReliableClient(home, ClientConfig{
		ID: "h07", MaxAttempts: maxAttempts, BackoffBase: 10 * time.Millisecond, BackoffMax: 25 * time.Millisecond,
		Sleep: func(d time.Duration) { *sleeps = append(*sleeps, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rc.dropConn() })
	sendFlows(t, rc, 0, n)
	return rc, sleeps
}

func sendFlows(t *testing.T, rc *ReliableClient, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := rc.SendCF(fabric.FlowKey{Src: topo.NodeID(i + 1), Dst: 2, Proto: 17}); err != nil {
			t.Fatal(err)
		}
	}
}

// retries is what the benchmark counts as the reliability machinery
// stepping in; a placement is not one of them.
func retries(st ClientStats) int {
	return st.Reconnects + st.Resubmitted + st.Backpressure + st.Redirected
}

// TestReliableClientFollowsPlacement: a home that places the client makes
// it dial the placed address at once, with no backoff sleep and no attempt
// spent, and resubmit everything pending there in seq order. The
// placement counts in Placed and in no retry counter.
func TestReliableClientFollowsPlacement(t *testing.T) {
	shard := ackingShard(t)
	home := placingHome(t, shard.addr())
	rc, sleeps := placementClient(t, home.addr(), 1, 3)
	if err := rc.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	want := []int64{1, 2, 3}
	if got, _ := home.seen(); !reflect.DeepEqual(got, want) {
		t.Errorf("home read %v, want %v", got, want)
	}
	if got, _ := shard.seen(); !reflect.DeepEqual(got, want) {
		t.Errorf("the placed shard read %v, want every pending message in seq order %v", got, want)
	}
	if len(*sleeps) != 0 || rc.Pending() != 0 {
		t.Errorf("sleeps = %v, pending = %d: want no backoff and everything acked", *sleeps, rc.Pending())
	}
	if rc.Stats.Placed != 1 || retries(rc.Stats) != 0 {
		t.Errorf("stats = %+v, want one placement and no retry", rc.Stats)
	}

	// The placed connection is kept: the next Flush goes straight to it.
	sendFlows(t, rc, 3, 4)
	if err := rc.Flush(); err != nil {
		t.Fatalf("second Flush: %v", err)
	}
	if got, conns := home.seen(); len(got) != 3 || conns != 1 {
		t.Errorf("home read %v on %d connections after the second Flush, want nothing more", got, conns)
	}
	if rc.Stats.Placed != 1 || retries(rc.Stats) != 0 {
		t.Errorf("stats = %+v after the second Flush, want it unchanged", rc.Stats)
	}
}

// TestReliableClientPlacedTwiceIsRedirected: an addressed moved NAK read
// on a connection the client was placed on is a misassembled fleet, not a
// second placement: Flush returns ErrRedirected.
func TestReliableClientPlacedTwiceIsRedirected(t *testing.T) {
	elsewhere := ackingShard(t)
	shard := placingHome(t, elsewhere.addr()) // a "shard" that places again
	home := placingHome(t, shard.addr())
	rc, _ := placementClient(t, home.addr(), 2, 2)
	if err := rc.Flush(); !errors.Is(err, ErrRedirected) {
		t.Fatalf("Flush = %v, want ErrRedirected", err)
	}
	if got, conns := elsewhere.seen(); len(got) != 0 || conns != 0 {
		t.Errorf("the client followed a second placement (%v on %d connections)", got, conns)
	}
	if rc.Stats.Placed != 2 || rc.Stats.Redirected != 4 || rc.Pending() != 2 {
		t.Errorf("stats = %+v, pending = %d: want 2 placements, 2 redirected NAKs per attempt, both messages kept",
			rc.Stats, rc.Pending())
	}
	if _, conns := home.seen(); conns != 2 {
		t.Errorf("home saw %d connections, want 2: each attempt after a failed placed one starts at home", conns)
	}
}

// TestReliableClientPlacedFailureGoesHome: once a placed connection dies,
// the next dial goes to the home address, which places the client again.
// The kept connection was stale, so the redial costs no backoff sleep.
func TestReliableClientPlacedFailureGoesHome(t *testing.T) {
	shard := ackingShard(t)
	home := placingHome(t, shard.addr())
	rc, sleeps := placementClient(t, home.addr(), 3, 2)
	if err := rc.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	shard.drop() // the shard dies with the client's connection open

	sendFlows(t, rc, 2, 3)
	if err := rc.Flush(); err != nil {
		t.Fatalf("Flush after the shard connection died: %v", err)
	}
	if got, conns := home.seen(); !reflect.DeepEqual(got, []int64{1, 2, 3}) || conns != 2 {
		t.Errorf("home read %v on %d connections, want seq 3 on a second connection", got, conns)
	}
	if got, conns := shard.seen(); !reflect.DeepEqual(got, []int64{1, 2, 3}) || conns != 2 {
		t.Errorf("shard read %v on %d connections, want seq 3 on a new connection", got, conns)
	}
	if len(*sleeps) != 0 || rc.Stats.Placed != 2 || rc.Stats.Reconnects != 1 {
		t.Errorf("sleeps = %v, stats = %+v: want two placements, one reconnect, no backoff", *sleeps, rc.Stats)
	}
}

// TestReliableClientPlacedOnDeadAddress: a home that keeps placing the
// client on an address nothing listens on costs one attempt per
// placement, with backoff between them, and Flush gives up after
// MaxAttempts with the messages kept.
func TestReliableClientPlacedOnDeadAddress(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	_ = ln.Close()
	home := placingHome(t, dead)
	rc, sleeps := placementClient(t, home.addr(), 4, 1)
	err = rc.Flush()
	if err == nil || errors.Is(err, ErrRedirected) {
		t.Fatalf("Flush = %v, want a dial failure after MaxAttempts", err)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 25 * time.Millisecond}
	if !reflect.DeepEqual(*sleeps, want) {
		t.Errorf("sleeps = %v, want %v", *sleeps, want)
	}
	if _, conns := home.seen(); conns != 4 || rc.Stats.Placed != 4 || rc.Pending() != 1 {
		t.Errorf("home saw %d connections, stats = %+v, pending = %d: want 4 attempts, each placed, the message kept",
			conns, rc.Stats, rc.Pending())
	}
}
