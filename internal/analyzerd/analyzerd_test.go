package analyzerd

import (
	"net"
	"reflect"
	"testing"
	"time"

	"vedrfolnir/internal/scenario"
)

// testConfig mirrors the scenario package's fast unit-test configuration.
func testConfig() scenario.Config {
	cfg := scenario.DefaultConfig()
	cfg.Scale = 1.0 / 360
	cfg.StepBytes = int64(1e6)
	cfg.CellSize = 16 << 10
	cfg.Fabric.PFCPauseThreshold = 64 << 10
	cfg.Fabric.PFCResumeThreshold = 32 << 10
	cfg.Fabric.ECNThreshold = 32 << 10
	return cfg
}

// waitIngested polls until the server has ingested the expected counts or
// the deadline passes (submissions are async over TCP).
func waitIngested(t *testing.T, s *Server, recs, reps, cfs int) {
	t.Helper()
	//lint:ignore nosystime the daemon is a real TCP server; wall clock is the right deadline
	deadline := time.Now().Add(5 * time.Second)
	//lint:ignore nosystime polling a real network service, not simulated state
	for time.Now().Before(deadline) {
		r, p, c := s.Counts()
		if r >= recs && p >= reps && c >= cfs {
			return
		}
		//lint:ignore nosystime backoff between polls of the real TCP daemon
		time.Sleep(time.Millisecond)
	}
	r, p, c := s.Counts()
	t.Fatalf("ingestion stalled: have %d/%d/%d, want %d/%d/%d", r, p, c, recs, reps, cfs)
}

// TestEndToEndParity runs a full simulated contention case, ships every
// record and report to the analyzer daemon over real TCP (split across two
// reliable clients, as two host agents would), and verifies the networked
// diagnosis matches the in-process one exactly.
func TestEndToEndParity(t *testing.T) {
	cfg := testConfig()
	cs, err := scenario.GenerateCase(scenario.Contention, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(cs, scenario.Vedrfolnir, cfg, scenario.DefaultRunOptions(cfg))
	if err != nil {
		t.Fatal(err)
	}
	local := res.Diag
	if len(res.Reports) == 0 || len(res.Records) == 0 {
		t.Fatal("setup: no inputs to ship")
	}

	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c1, err := NewReliableClient(srv.Addr(), ClientConfig{ID: "h1", MaxPending: -1})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewReliableClient(srv.Addr(), ClientConfig{ID: "h2", MaxPending: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range res.Records {
		c := c1
		if i%2 == 1 {
			c = c2
		}
		if err := c.SendStep(rec); err != nil {
			t.Fatal(err)
		}
	}
	for i, rep := range res.Reports {
		c := c1
		if i%2 == 1 {
			c = c2
		}
		if err := c.SendReport(rep); err != nil {
			t.Fatal(err)
		}
	}
	for cf := range res.CFs {
		if err := c1.SendCF(cf); err != nil {
			t.Fatal(err)
		}
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}

	// Close returns once every message is acked, and an ack follows the
	// message into the ingested stream.
	if r, p, c := srv.Counts(); r != len(res.Records) || p != len(res.Reports) || c != len(res.CFs) {
		t.Fatalf("ingested %d/%d/%d, want %d/%d/%d", r, p, c, len(res.Records), len(res.Reports), len(res.CFs))
	}
	remote := srv.Diagnose()

	if !reflect.DeepEqual(remote.CriticalPath, local.CriticalPath) {
		t.Fatalf("critical path differs:\nremote %v\nlocal  %v", remote.CriticalPath, local.CriticalPath)
	}
	if !reflect.DeepEqual(remote.Culprits(), local.Culprits()) {
		t.Fatalf("culprits differ:\nremote %v\nlocal  %v", remote.Culprits(), local.Culprits())
	}
	if len(remote.Findings) != len(local.Findings) {
		t.Fatalf("finding counts differ: %d vs %d", len(remote.Findings), len(local.Findings))
	}
	for i := range local.Findings {
		if remote.Findings[i].Type != local.Findings[i].Type ||
			remote.Findings[i].Port != local.Findings[i].Port ||
			remote.Findings[i].RootPort != local.Findings[i].RootPort {
			t.Fatalf("finding %d differs:\nremote %+v\nlocal  %+v", i, remote.Findings[i], local.Findings[i])
		}
	}
	if len(remote.Ratings) != len(local.Ratings) {
		t.Fatalf("rating counts differ: %d vs %d", len(remote.Ratings), len(local.Ratings))
	}
	for i := range local.Ratings {
		if remote.Ratings[i].Flow != local.Ratings[i].Flow ||
			remote.Ratings[i].Score != local.Ratings[i].Score {
			t.Fatalf("rating %d differs: %+v vs %+v", i, remote.Ratings[i], local.Ratings[i])
		}
	}
}

func TestBadMessageRejected(t *testing.T) {
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
	sendLine(t, conn, `{"type":"bogus","seq":1,"client":"h1"}`)
	expectReply(t, conn, `{"error":"unknown message type \"bogus\""}`)
	if r, p, cf := srv.Counts(); r+p+cf != 0 {
		t.Fatalf("bogus message ingested: %d/%d/%d", r, p, cf)
	}
}

func TestServeAndCloseIdempotence(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if srv.Addr() == "" {
		t.Fatal("no address")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Dialing a closed server fails.
	if _, err := net.Dial("tcp", srv.Addr()); err == nil {
		t.Fatal("dial after close should fail")
	}
}
