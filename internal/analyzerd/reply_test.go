package analyzerd

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"testing"
	"time"

	"vedrfolnir/internal/wire"
)

// echoReply decodes everything a sequenced reply may carry.
type echoReply struct {
	Ack    int64          `json:"ack"`
	Nak    int64          `json:"nak"`
	Client string         `json:"client"`
	Error  string         `json:"error"`
	Retry  bool           `json:"retry"`
	Moved  bool           `json:"moved"`
	Owner  int            `json:"owner"`
	Map    *wire.ShardMap `json:"map"`
}

func readEcho(t *testing.T, conn net.Conn, br *bufio.Reader) echoReply {
	t.Helper()
	//lint:ignore nosystime reply deadline on a real TCP connection
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var rep echoReply
	if err := json.Unmarshal(line, &rep); err != nil {
		t.Fatalf("reply %q is not JSON: %v", line, err)
	}
	return rep
}

// cfFrom is a sequenced cf line from client, the id JSON-encoded.
func cfFrom(t *testing.T, client string, seq int64) string {
	t.Helper()
	flow := testFlow(int(seq))
	b, err := json.Marshal(Message{Type: TypeCF, CF: &flow, Seq: seq, Client: client})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSequencedRepliesEchoClient: every reply to a sequenced submission
// from a named client — applier ack, handler-side duplicate ack, retryable
// NAK, permanent NAK, moved NAK — names the client next to the seq, as
// JSON (not Go) string syntax, for ids with a quote, a backslash, a
// control byte or non-ASCII text. No reader keeps the field now (a
// client reads its own shard's replies), but the bytes stay as they were.
// A reply that names no client (a refusal of an unparsable line) keeps
// the bare form.
func TestSequencedRepliesEchoClient(t *testing.T) {
	ids := []string{"h03", `ho"st`, `back\slash`, "tab\there", "héllo-主机", "bad\xffbyte"}

	t.Run("builders", func(t *testing.T) {
		for _, id := range ids {
			// A client id reaches the daemon through a JSON decode, which
			// maps invalid UTF-8 to U+FFFD; the echo must survive the
			// same round trip.
			want := id
			if b, err := json.Marshal(id); err == nil {
				_ = json.Unmarshal(b, &want)
			}
			for name, line := range map[string][]byte{
				"ack":           AckLine(7, id),
				"retry nak":     NakLine(7, id, `queue "full"`, true),
				"permanent nak": NakLine(7, id, "step message without payload", false),
			} {
				var rep echoReply
				if err := json.Unmarshal(line, &rep); err != nil {
					t.Fatalf("%s for %q = %q: %v", name, id, line, err)
				}
				if rep.Client != want || rep.Ack+rep.Nak != 7 {
					t.Errorf("%s for %q = %q: decoded client %q seq %d", name, id, line, rep.Client, rep.Ack+rep.Nak)
				}
				if rep.Retry != (name == "retry nak") || (name != "ack") != (rep.Error != "") {
					t.Errorf("%s for %q = %q: wrong shape %+v", name, id, line, rep)
				}
			}
		}
		if got := string(AckLine(7, "")); got != `{"ack":7}`+"\n" {
			t.Errorf("client-less ack = %q", got)
		}
		if got := string(NakLine(0, "", "bad", true)); got != `{"error":"bad","retry":true}`+"\n" {
			t.Errorf("unsequenced refusal = %q", got)
		}
		if got := string(AckLine(7, "h03")); got != `{"ack":7,"client":"h03"}`+"\n" {
			t.Errorf("plain ack = %q", got)
		}
	})

	t.Run("server", func(t *testing.T) {
		// The applier takes one message past the gate and the queue
		// holds one more, so a third in one write is NACKed overloaded.
		gate := make(chan struct{})
		cfg := DefaultServerConfig()
		cfg.MaxQueue = 1
		cfg.testApplyGate = gate
		srv, err := ServeWith("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatal(err)
		}
		// open feeds the gate until the returned stop is called; call
		// stop only once every line sent has been answered, when the
		// applier waits on the queue and not on the gate.
		open := func() (stop func()) {
			done := make(chan struct{})
			go func() {
				for {
					select {
					case gate <- struct{}{}:
					case <-done:
						return
					}
				}
			}()
			return func() { close(done) }
		}
		defer func() {
			stop := open() // a failed check must not leave Close waiting on the gate
			srv.Close()
			stop()
		}()
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		for _, id := range ids[:5] {
			stop := open()
			sendLine(t, conn, cfFrom(t, id, 1))
			if rep := readEcho(t, conn, br); rep.Ack != 1 || rep.Client != id {
				t.Errorf("applier ack for %q = %+v", id, rep)
			}
			sendLine(t, conn, cfFrom(t, id, 1))
			if rep := readEcho(t, conn, br); rep.Ack != 1 || rep.Client != id {
				t.Errorf("duplicate ack for %q = %+v", id, rep)
			}
			stop()
			// With the gate shut nothing can be acked, so the first reply
			// is the overload NAK of seq 3 or 4 (seq 2 finds the queue
			// empty). The rest — acks, or an out-of-order NAK when seq 3
			// was the one shed — come once the gate opens.
			sendLine(t, conn, cfFrom(t, id, 2)+"\n"+cfFrom(t, id, 3)+"\n"+cfFrom(t, id, 4))
			if rep := readEcho(t, conn, br); rep.Nak < 3 || !rep.Retry || rep.Client != id {
				t.Errorf("overload NAK for %q = %+v", id, rep)
			}
			stop = open()
			for i := 0; i < 2; i++ {
				if rep := readEcho(t, conn, br); rep.Ack+rep.Nak < 2 || rep.Client != id {
					t.Errorf("reply for %q = %+v", id, rep)
				}
			}
			stop()
		}
	})

	t.Run("moved", func(t *testing.T) {
		m := wire.ShardMap{Shards: 2}
		ring, err := wire.NewHashRing(m)
		if err != nil {
			t.Fatal(err)
		}
		srv := shardServe(t, m, 0, "")
		defer srv.Close()
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		disowned := ""
		for i := 0; disowned == ""; i++ {
			if id := fmt.Sprintf(`é"%d`, i); ring.Owner(id) == 1 {
				disowned = id
			}
		}
		sendLine(t, conn, cfFrom(t, disowned, 5))
		rep := readEcho(t, conn, br)
		if rep.Nak != 5 || !rep.Moved || !rep.Retry || rep.Owner != 1 || rep.Client != disowned || rep.Map == nil || rep.Map.Shards != 2 {
			t.Errorf("moved NAK for %q = %+v", disowned, rep)
		}
	})
}
