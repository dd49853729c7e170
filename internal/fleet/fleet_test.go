package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"vedrfolnir/internal/analyzerd"
	"vedrfolnir/internal/chaos"
	"vedrfolnir/internal/collective"
	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/telemetry"
	"vedrfolnir/internal/topo"
	"vedrfolnir/internal/wire"
)

// startTestShard runs an in-process fleet shard with a WAL so an aborted
// incarnation recovers.
func startTestShard(t *testing.T, m wire.ShardMap, index int, dir string) *analyzerd.Server {
	t.Helper()
	srv, err := analyzerd.ServeWith("127.0.0.1:0", testShardConfig(m, index, dir))
	if err != nil {
		t.Fatalf("ServeWith: %v", err)
	}
	return srv
}

func testShardConfig(m wire.ShardMap, index int, dir string) analyzerd.ServerConfig {
	cfg := analyzerd.DefaultServerConfig()
	cfg.Shard = &analyzerd.ShardConfig{Map: m, Index: index}
	if dir != "" {
		cfg.Durability = &analyzerd.DurabilityConfig{
			Dir: dir, Fsync: analyzerd.FsyncAlways, SnapshotEvery: 3,
		}
	}
	return cfg
}

// submission is one message from one named host agent.
type submission struct {
	host string
	send func(rc *analyzerd.ReliableClient) error
}

func hostFlow(i int) fabric.FlowKey {
	return fabric.FlowKey{
		Src: topo.NodeID(i + 1), Dst: topo.NodeID(i + 2),
		SrcPort: 7, DstPort: 8, Proto: 17,
	}
}

// fleetStream is the fixed 12-host submission stream: every host
// registers its collective flow and its step record, and every third host
// also files a telemetry report, so the merged diagnosis has real
// provenance to chew on.
func fleetStream() []submission {
	var subs []submission
	for i := 0; i < 12; i++ {
		host := fmt.Sprintf("h%02d", i)
		cf := hostFlow(i)
		subs = append(subs, submission{host, func(rc *analyzerd.ReliableClient) error {
			return rc.SendCF(cf)
		}})
		rec := collective.StepRecord{
			Host: topo.NodeID(i + 1), Step: i % 4, Flow: cf,
			Bytes: int64(1000 * (i + 1)), Start: 0, End: simtime.Time(100 * (i + 1)),
		}
		subs = append(subs, submission{host, func(rc *analyzerd.ReliableClient) error {
			return rc.SendStep(rec)
		}})
		if i%3 == 0 {
			rep := &telemetry.Report{
				At:          simtime.Time(50 * (i + 1)),
				TriggeredBy: cf,
				HopsPolled:  3,
				Flows: []telemetry.FlowRecord{{
					Switch: topo.NodeID(100 + i), Port: 1, Flow: cf,
					Pkts: int64(10 * (i + 1)), Bytes: int64(500 * (i + 1)),
					Wait: map[fabric.FlowKey]int64{hostFlow((i + 1) % 12): int64(i + 1)},
				}},
			}
			subs = append(subs, submission{host, func(rc *analyzerd.ReliableClient) error {
				return rc.SendReport(rep)
			}})
		}
	}
	return subs
}

// fleetRun drives the full stream through a router over live in-process
// shards, SIGKILL-style aborting and restarting shards per the kill plan,
// and returns the drained merged bundle bytes and diagnosis JSON.
func fleetRun(t *testing.T, shards int, kills []chaos.ShardKill) (bundle, diag []byte) {
	t.Helper()
	m := wire.ShardMap{Shards: shards}
	srvs := make([]*analyzerd.Server, shards)
	dirs := make([]string, shards)
	addrs := make([]string, shards)
	for i := range srvs {
		dirs[i] = t.TempDir()
		srvs[i] = startTestShard(t, m, i, dirs[i])
		addrs[i] = srvs[i].Addr()
	}
	router, err := StartRouter("127.0.0.1:0", RouterConfig{Map: m, Addrs: addrs})
	if err != nil {
		t.Fatalf("StartRouter: %v", err)
	}
	defer func() {
		router.Close()
		for _, s := range srvs {
			_ = s.Close()
		}
	}()

	clients := map[string]*analyzerd.ReliableClient{}
	client := func(host string) *analyzerd.ReliableClient {
		if rc, ok := clients[host]; ok {
			return rc
		}
		rc, err := analyzerd.NewReliableClient(router.Addr(), analyzerd.ClientConfig{
			ID: host, MaxAttempts: 20,
			BackoffBase: 5 * time.Millisecond, BackoffMax: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("NewReliableClient(%s): %v", host, err)
		}
		clients[host] = rc
		return rc
	}

	acked, ki := 0, 0
	for _, sub := range fleetStream() {
		rc := client(sub.host)
		if err := sub.send(rc); err != nil {
			t.Fatalf("send from %s: %v", sub.host, err)
		}
		if err := rc.Flush(); err != nil {
			t.Fatalf("flush from %s: %v", sub.host, err)
		}
		acked++
		for ki < len(kills) && kills[ki].AfterAcked <= acked {
			i := kills[ki].Shard
			srvs[i].Abort() // SIGKILL stand-in: no drain, WAL abandoned
			srvs[i] = startTestShard(t, m, i, dirs[i])
			router.SetShardAddr(i, srvs[i].Addr())
			ki++
		}
	}
	for _, rc := range clients {
		if err := rc.Close(); err != nil {
			t.Fatalf("client close: %v", err)
		}
	}

	states := make([]*wire.ShardState, 0, shards)
	for i := 0; i < shards; i++ {
		state, err := router.DumpShard(i)
		if err != nil {
			t.Fatalf("DumpShard(%d): %v", i, err)
		}
		states = append(states, state)
	}
	b, _ := wire.MergeShardStates(states)
	var bb bytes.Buffer
	if err := b.Write(&bb); err != nil {
		t.Fatalf("bundle write: %v", err)
	}
	dj, err := json.Marshal(wire.FromDiagnosis(b.AnalyzeObs(nil)))
	if err != nil {
		t.Fatalf("diagnosis marshal: %v", err)
	}
	return bb.Bytes(), dj
}

// TestFleetKillAnyShardByteIdentity is the headline robustness contract:
// SIGKILL any single shard mid-ingest (and, in the final run, every shard
// in turn), let recovery bring it back on its WAL, and the drained merged
// bundle AND diagnosis are byte-identical to an unbroken run's.
func TestFleetKillAnyShardByteIdentity(t *testing.T) {
	const shards = 4
	total := len(fleetStream())
	refBundle, refDiag := fleetRun(t, shards, nil)
	if !strings.Contains(string(refDiag), "critical_path") {
		t.Fatalf("reference diagnosis looks empty: %s", refDiag)
	}

	plan := chaos.NewWALFaults(7).ShardKills(shards, total-1)
	if len(plan) != shards {
		t.Fatalf("kill plan covers %d shards, want %d", len(plan), shards)
	}
	for _, kill := range plan {
		t.Run(fmt.Sprintf("kill-shard-%d-after-%d", kill.Shard, kill.AfterAcked), func(t *testing.T) {
			gotBundle, gotDiag := fleetRun(t, shards, []chaos.ShardKill{kill})
			if !bytes.Equal(gotBundle, refBundle) {
				t.Errorf("merged bundle differs after killing shard %d:\n%s\nvs\n%s",
					kill.Shard, gotBundle, refBundle)
			}
			if !bytes.Equal(gotDiag, refDiag) {
				t.Errorf("diagnosis differs after killing shard %d:\n%s\nvs\n%s",
					kill.Shard, gotDiag, refDiag)
			}
		})
	}
	t.Run("kill-every-shard", func(t *testing.T) {
		gotBundle, gotDiag := fleetRun(t, shards, plan)
		if !bytes.Equal(gotBundle, refBundle) || !bytes.Equal(gotDiag, refDiag) {
			t.Errorf("output differs after killing all %d shards in turn", shards)
		}
	})
}

// TestFleetDegradedGather: a shard that dies and stays down must degrade
// the merged diagnosis (counted missing inputs, confidence < 1), not fail
// the drain. This is the in-process half of the Fleet.Drain contract,
// exercised at the router layer it is built on.
func TestFleetDegradedGather(t *testing.T) {
	const shards = 3
	m := wire.ShardMap{Shards: shards}
	srvs := make([]*analyzerd.Server, shards)
	addrs := make([]string, shards)
	for i := range srvs {
		srvs[i] = startTestShard(t, m, i, "")
		addrs[i] = srvs[i].Addr()
		defer srvs[i].Close()
	}
	router, err := StartRouter("127.0.0.1:0", RouterConfig{Map: m, Addrs: addrs})
	if err != nil {
		t.Fatalf("StartRouter: %v", err)
	}
	defer router.Close()

	ring, err := wire.NewHashRing(m)
	if err != nil {
		t.Fatalf("NewHashRing: %v", err)
	}
	clients := map[string]*analyzerd.ReliableClient{}
	for _, sub := range fleetStream() {
		rc, ok := clients[sub.host]
		if !ok {
			var err error
			rc, err = analyzerd.NewReliableClient(router.Addr(), analyzerd.ClientConfig{
				ID: sub.host, MaxAttempts: 5, BackoffBase: time.Millisecond,
			})
			if err != nil {
				t.Fatalf("client: %v", err)
			}
			clients[sub.host] = rc
		}
		if err := sub.send(rc); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	for _, rc := range clients {
		if err := rc.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}

	// Kill the shard owning h00 and leave it down.
	dead := ring.Owner("h00")
	srvs[dead].Abort()

	tallies := router.Tallies()
	if tallies[dead].Total() == 0 {
		t.Fatalf("router never tallied anything for shard %d, which owns h00", dead)
	}
	var states []*wire.ShardState
	missedRecords, missedReports := 0, 0
	for i := 0; i < shards; i++ {
		state, err := router.DumpShard(i)
		if err != nil {
			if i != dead {
				t.Fatalf("DumpShard(%d): %v", i, err)
			}
			missedRecords += tallies[i].Records
			missedReports += tallies[i].Reports
			continue
		}
		if i == dead {
			t.Fatalf("DumpShard(%d) succeeded on a dead shard", i)
		}
		states = append(states, state)
	}
	b, stats := wire.MergeShardStates(states)
	if stats.Shards != shards-1 {
		t.Errorf("merged %d shards, want %d", stats.Shards, shards-1)
	}
	diag := b.AnalyzeDegraded(nil, missedRecords, missedReports)
	if diag.Confidence >= 1 {
		t.Errorf("Confidence = %v, want < 1 for a degraded gather missing %d records, %d reports",
			diag.Confidence, missedRecords, missedReports)
	}
}

// TestRouterRejectsUnroutableLines pins the router's refusal set: lines
// it could never relay an outcome for are answered with a hard error, not
// silently swallowed or guessed at.
func TestRouterRejectsUnroutableLines(t *testing.T) {
	m := wire.ShardMap{Shards: 2}
	router, err := StartRouter("127.0.0.1:0", RouterConfig{Map: m})
	if err != nil {
		t.Fatalf("StartRouter: %v", err)
	}
	defer router.Close()
	conn, err := net.Dial("tcp", router.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)

	cases := []struct {
		name, line string
	}{
		{"malformed", `{not json`},
		{"dump", `{"type":"dump"}`},
		{"unnamed", `{"type":"cf","cf":{"src":1,"dst":2,"src_port":7,"dst_port":8,"proto":17},"seq":1}`},
		{"unsequenced", `{"type":"cf","cf":{"src":1,"dst":2,"src_port":7,"dst_port":8,"proto":17},"client":"h00"}`},
	}
	for _, tc := range cases {
		if _, err := fmt.Fprintln(conn, tc.line); err != nil {
			t.Fatalf("%s: write: %v", tc.name, err)
		}
		rep, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("%s: read: %v", tc.name, err)
		}
		var parsed struct {
			Error string `json:"error"`
			Nak   int64  `json:"nak"`
		}
		if err := json.Unmarshal([]byte(rep), &parsed); err != nil || parsed.Error == "" {
			t.Errorf("%s: reply %q, want a hard error", tc.name, rep)
		}
		if parsed.Nak != 0 {
			t.Errorf("%s: reply %q is a NACK; rejections must not invite a retry", tc.name, rep)
		}
	}
	if got := router.Stats().Rejected; got != int64(len(cases)) {
		t.Errorf("Rejected = %d, want %d", got, len(cases))
	}
}

// TestRouterShardDownNacksRetryably: with no shard reachable, a sequenced
// submission gets {"nak":seq,...,"retry":true} so the reliable client
// backs off and resubmits instead of dropping the message.
func TestRouterShardDownNacksRetryably(t *testing.T) {
	m := wire.ShardMap{Shards: 2}
	router, err := StartRouter("127.0.0.1:0", RouterConfig{Map: m})
	if err != nil {
		t.Fatalf("StartRouter: %v", err)
	}
	defer router.Close()

	rc, err := analyzerd.NewReliableClient(router.Addr(), analyzerd.ClientConfig{
		ID: "h00", MaxAttempts: 3, BackoffBase: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	if err := rc.SendCF(hostFlow(0)); err != nil {
		t.Fatalf("SendCF: %v", err)
	}
	err = rc.Flush()
	if err == nil {
		t.Fatal("Flush succeeded with every shard down")
	}
	if errors.Is(err, analyzerd.ErrRedirected) {
		t.Fatalf("Flush = %v; shard-down must be a retryable NACK, not a redirect", err)
	}
	if rc.Pending() != 1 {
		t.Errorf("Pending = %d, want 1 (message retained for resubmission)", rc.Pending())
	}
	if got := router.Stats().ShardDown; got < 3 {
		t.Errorf("ShardDown = %d, want >= 3 (one per attempt)", got)
	}
}

// TestRouterRelaysMovedNack: a misassembled fleet (a shard daemon running
// with the wrong index) moved-NACKs disowned clients; the router relays
// that verbatim and the reliable client surfaces ErrRedirected — the
// misconfiguration is loud, not lost.
func TestRouterRelaysMovedNack(t *testing.T) {
	m := wire.ShardMap{Shards: 2}
	// Both daemons claim index 0: whichever shard 1's clients land on
	// will disown them.
	s0 := startTestShard(t, m, 0, "")
	defer s0.Close()
	s1 := startTestShard(t, m, 0, "")
	defer s1.Close()
	router, err := StartRouter("127.0.0.1:0", RouterConfig{
		Map: m, Addrs: []string{s0.Addr(), s1.Addr()},
	})
	if err != nil {
		t.Fatalf("StartRouter: %v", err)
	}
	defer router.Close()

	ring, err := wire.NewHashRing(m)
	if err != nil {
		t.Fatalf("NewHashRing: %v", err)
	}
	disowned := ""
	for i := 0; i < 1024 && disowned == ""; i++ {
		if name := fmt.Sprintf("h%03d", i); ring.Owner(name) == 1 {
			disowned = name
		}
	}
	rc, err := analyzerd.NewReliableClient(router.Addr(), analyzerd.ClientConfig{
		ID: disowned, MaxAttempts: 2, BackoffBase: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	if err := rc.SendCF(hostFlow(0)); err != nil {
		t.Fatalf("SendCF: %v", err)
	}
	if err := rc.Flush(); !errors.Is(err, analyzerd.ErrRedirected) {
		t.Fatalf("Flush = %v, want ErrRedirected relayed through the router", err)
	}
}

// pipelinedStream is fleetStream's pipelined cousin: per host, the
// messages it flushes as ONE batch — its flow, eight step records, and for
// every third host a telemetry report.
func pipelinedStream() (hosts []string, batches map[string][]func(rc *analyzerd.ReliableClient) error) {
	batches = map[string][]func(rc *analyzerd.ReliableClient) error{}
	for i := 0; i < 12; i++ {
		host := fmt.Sprintf("h%02d", i)
		hosts = append(hosts, host)
		cf := hostFlow(i)
		batch := []func(rc *analyzerd.ReliableClient) error{
			func(rc *analyzerd.ReliableClient) error { return rc.SendCF(cf) },
		}
		for k := 0; k < 8; k++ {
			rec := collective.StepRecord{
				Host: topo.NodeID(i + 1), Step: k, Flow: cf,
				Bytes: int64(1000*(i+1) + k), Start: simtime.Time(100 * k), End: simtime.Time(100*k + 10*(i+1)),
			}
			batch = append(batch, func(rc *analyzerd.ReliableClient) error { return rc.SendStep(rec) })
		}
		if i%3 == 0 {
			rep := &telemetry.Report{
				At: simtime.Time(50 * (i + 1)), TriggeredBy: cf, HopsPolled: 3,
				Flows: []telemetry.FlowRecord{{
					Switch: topo.NodeID(100 + i), Port: 1, Flow: cf,
					Pkts: int64(10 * (i + 1)), Bytes: int64(500 * (i + 1)),
					Wait: map[fabric.FlowKey]int64{hostFlow((i + 1) % 12): int64(i + 1)},
				}},
			}
			batch = append(batch, func(rc *analyzerd.ReliableClient) error { return rc.SendReport(rep) })
		}
		batches[host] = batch
	}
	return hosts, batches
}

// pipelinedRun flushes pipelinedStream host by host, one batch per Flush,
// through a router over live in-process shards. A kill fires from the
// router's OnAcked hook the moment the fleet-wide acked count reaches it —
// on the link reader, before that ack is even relayed — so the rest of the
// batch is still in flight on the dying shard's link.
func pipelinedRun(t *testing.T, shards int, kills []chaos.ShardKill) (bundle, diag []byte) {
	t.Helper()
	m := wire.ShardMap{Shards: shards}
	srvs := make([]*analyzerd.Server, shards)
	dirs := make([]string, shards)
	addrs := make([]string, shards)
	for i := range srvs {
		dirs[i] = t.TempDir()
		srvs[i] = startTestShard(t, m, i, dirs[i])
		addrs[i] = srvs[i].Addr()
	}
	var router *Router
	var kmu sync.Mutex
	ki := 0
	router, err := StartRouter("127.0.0.1:0", RouterConfig{Map: m, Addrs: addrs,
		OnAcked: func(total int64) {
			kmu.Lock()
			defer kmu.Unlock()
			for ki < len(kills) && int64(kills[ki].AfterAcked) <= total {
				i := kills[ki].Shard
				ki++
				srvs[i].Abort() // SIGKILL stand-in: no drain, WAL abandoned
				// Not startTestShard: this is a router goroutine, and
				// only the test's own may call t.Fatal.
				srv, err := analyzerd.ServeWith("127.0.0.1:0", testShardConfig(m, i, dirs[i]))
				if err != nil {
					t.Errorf("restarting shard %d: %v", i, err)
					return
				}
				srvs[i] = srv
				router.SetShardAddr(i, srv.Addr())
			}
		}})
	if err != nil {
		t.Fatalf("StartRouter: %v", err)
	}
	defer func() {
		router.Close()
		kmu.Lock()
		defer kmu.Unlock()
		for _, s := range srvs {
			_ = s.Close()
		}
	}()

	hosts, batches := pipelinedStream()
	for _, host := range hosts {
		rc, err := analyzerd.NewReliableClient(router.Addr(), analyzerd.ClientConfig{
			ID: host, MaxAttempts: 20,
			BackoffBase: 5 * time.Millisecond, BackoffMax: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("NewReliableClient(%s): %v", host, err)
		}
		for _, send := range batches[host] {
			if err := send(rc); err != nil {
				t.Fatalf("send from %s: %v", host, err)
			}
		}
		if err := rc.Close(); err != nil {
			t.Fatalf("flush from %s: %v", host, err)
		}
	}
	kmu.Lock()
	fired := ki
	kmu.Unlock()
	if fired != len(kills) {
		t.Fatalf("%d of %d kills fired", fired, len(kills))
	}
	if st := router.Stats(); len(kills) > 0 && st.ShardDown == 0 {
		t.Errorf("stats = %+v: no kill found a line in flight on its shard's link", st)
	}

	states := make([]*wire.ShardState, 0, shards)
	for i := 0; i < shards; i++ {
		state, err := router.DumpShard(i)
		if err != nil {
			t.Fatalf("DumpShard(%d): %v", i, err)
		}
		states = append(states, state)
	}
	b, _ := wire.MergeShardStates(states)
	var bb bytes.Buffer
	if err := b.Write(&bb); err != nil {
		t.Fatalf("bundle write: %v", err)
	}
	dj, err := json.Marshal(wire.FromDiagnosis(b.AnalyzeObs(nil)))
	if err != nil {
		t.Fatalf("diagnosis marshal: %v", err)
	}
	return bb.Bytes(), dj
}

// TestFleetKillShardMidBatchByteIdentity extends the kill-any-shard
// contract to pipelined batches: every shard is SIGKILLed strictly inside
// a batch bound for it (chaos.BatchShardKills) — head acknowledged, tail
// in flight on its link — and the drained bundle and diagnosis stay
// byte-identical to the unbroken run's.
func TestFleetKillShardMidBatchByteIdentity(t *testing.T) {
	const shards = 4
	ring, err := wire.NewHashRing(wire.ShardMap{Shards: shards})
	if err != nil {
		t.Fatalf("NewHashRing: %v", err)
	}
	hosts, batches := pipelinedStream()
	var sizes, owners []int
	for _, h := range hosts {
		sizes = append(sizes, len(batches[h]))
		owners = append(owners, ring.Owner(h))
	}
	plan := chaos.NewWALFaults(7).BatchShardKills(sizes, owners)
	if len(plan) < 2 {
		t.Fatalf("kill plan %v covers too few shards", plan)
	}
	refBundle, refDiag := pipelinedRun(t, shards, nil)
	if !strings.Contains(string(refDiag), "critical_path") {
		t.Fatalf("reference diagnosis looks empty: %s", refDiag)
	}
	for _, kill := range plan {
		t.Run(fmt.Sprintf("kill-shard-%d-after-%d", kill.Shard, kill.AfterAcked), func(t *testing.T) {
			gotBundle, gotDiag := pipelinedRun(t, shards, []chaos.ShardKill{kill})
			if !bytes.Equal(gotBundle, refBundle) {
				t.Errorf("merged bundle differs after killing shard %d mid-batch", kill.Shard)
			}
			if !bytes.Equal(gotDiag, refDiag) {
				t.Errorf("diagnosis differs after killing shard %d mid-batch:\n%s\nvs\n%s", kill.Shard, gotDiag, refDiag)
			}
		})
	}
	t.Run("kill-every-shard", func(t *testing.T) {
		gotBundle, gotDiag := pipelinedRun(t, shards, plan)
		if !bytes.Equal(gotBundle, refBundle) || !bytes.Equal(gotDiag, refDiag) {
			t.Errorf("output differs after killing %d shards mid-batch in turn", len(plan))
		}
	})
}
