package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
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

// drainStates stops every in-process shard, as SIGTERM stops a shard
// child, and rebuilds each one's state from its directory by the drain's
// one path (recoverShard).
func drainStates(t *testing.T, m wire.ShardMap, srvs []*analyzerd.Server, dirs []string) []*wire.ShardState {
	t.Helper()
	states := make([]*wire.ShardState, len(srvs))
	for i, srv := range srvs {
		if err := srv.Close(); err != nil {
			t.Fatalf("Close shard %d: %v", i, err)
		}
		state, err := recoverShard(dirs[i], m, i)
		if err != nil {
			t.Fatal(err)
		}
		states[i] = state
	}
	return states
}

// fleetRun drives the full stream through a router over live in-process
// shards, SIGKILL-style aborting and restarting shards per the kill plan,
// and returns the drained merged bundle bytes and diagnosis JSON.
func fleetRun(t *testing.T, shards int, kills []chaos.ShardKill) (bundle, diag []byte) {
	t.Helper()
	m := wire.ShardMap{Shards: shards}
	srvs := make([]*analyzerd.Server, shards)
	dirs := make([]string, shards)
	for i := range srvs {
		dirs[i] = t.TempDir()
		srvs[i] = startTestShard(t, m, i, dirs[i])
	}
	router, err := StartRouter("127.0.0.1:0", RouterConfig{Map: m})
	if err != nil {
		t.Fatalf("StartRouter: %v", err)
	}
	for i, srv := range srvs {
		router.SetShardAddr(i, srv.Addr())
	}
	defer func() {
		router.Stop()
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

	router.Stop()
	b, _ := wire.MergeShardStates(drainStates(t, m, srvs, dirs))
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

// TestFleetGatherRecoversAbortedShard is the in-process half of the
// Fleet.Drain contract for a shard that dies without a final WAL sync: a
// shard that dies and stays down is rebuilt from its snapshot and WAL
// tail to exactly the state it held, and the merge is byte-identical to
// the merge of every shard's live state.
func TestFleetGatherRecoversAbortedShard(t *testing.T) {
	const shards = 3
	m := wire.ShardMap{Shards: shards}
	srvs := make([]*analyzerd.Server, shards)
	dirs := make([]string, shards)
	for i := range srvs {
		dirs[i] = t.TempDir()
		// Snapshots every 4 leave the dead shard's 15 messages a WAL tail.
		cfg := testShardConfig(m, i, dirs[i])
		cfg.Durability.SnapshotEvery = 4
		srv, err := analyzerd.ServeWith("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatalf("ServeWith: %v", err)
		}
		srvs[i] = srv
		defer srv.Close()
	}
	router, err := StartRouter("127.0.0.1:0", RouterConfig{Map: m})
	if err != nil {
		t.Fatalf("StartRouter: %v", err)
	}
	defer router.Stop()
	for i, srv := range srvs {
		router.SetShardAddr(i, srv.Addr())
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
	router.Stop()
	live := make([]*wire.ShardState, shards)
	for i, srv := range srvs {
		live[i] = srv.ShardState()
	}
	merge := func(states []*wire.ShardState) (bundle, diag []byte) {
		b, _ := wire.MergeShardStates(states)
		var bb bytes.Buffer
		if err := b.Write(&bb); err != nil {
			t.Fatalf("bundle write: %v", err)
		}
		dj, err := json.Marshal(wire.FromDiagnosis(b.Analyze()))
		if err != nil {
			t.Fatalf("diagnosis marshal: %v", err)
		}
		return bb.Bytes(), dj
	}
	wantBundle, wantDiag := merge(live)

	// Kill the shard owning h00 and leave it down; drain the others.
	ring, err := wire.NewHashRing(m)
	if err != nil {
		t.Fatalf("NewHashRing: %v", err)
	}
	dead := ring.Owner("h00")
	states := make([]*wire.ShardState, shards)
	for i, srv := range srvs {
		if i == dead {
			srv.Abort() // SIGKILL stand-in: no final sync, WAL abandoned
		} else if err := srv.Close(); err != nil {
			t.Fatalf("Close shard %d: %v", i, err)
		}
		if states[i], err = recoverShard(dirs[i], m, i); err != nil {
			t.Fatal(err)
		}
	}
	_, st, err := analyzerd.RecoverShard(dirs[dead], analyzerd.ShardConfig{Map: m, Index: dead})
	if err != nil {
		t.Fatalf("RecoverShard(%d): %v", dead, err)
	}
	if !st.SnapshotLoaded || st.WALEntries == 0 {
		t.Errorf("shard %d recovered from snapshot %v plus %d WAL entries; want both halves checked", dead, st.SnapshotLoaded, st.WALEntries)
	}
	for i := range states {
		if !reflect.DeepEqual(states[i], live[i]) {
			t.Errorf("shard %d (dead: %v) rebuilt from its directory:\n%+v\nits live state:\n%+v", i, i == dead, states[i], live[i])
		}
	}
	gotBundle, gotDiag := merge(states)
	if !bytes.Equal(gotBundle, wantBundle) || !bytes.Equal(gotDiag, wantDiag) {
		t.Errorf("merge with shard %d recovered offline differs from the live merge:\n%s\nvs\n%s", dead, gotDiag, wantDiag)
	}
}

// TestFleetDrainRefusesMisassembledDirectory: a directory written under
// another shard map holds clients the drain's map gives to other shards,
// and the drain fails on it rather than merge the rest.
func TestFleetDrainRefusesMisassembledDirectory(t *testing.T) {
	dir := t.TempDir()
	srv := startTestShard(t, wire.ShardMap{Shards: 1}, 0, dir) // owns every client
	defer srv.Close()
	for i := 0; i < 4; i++ {
		rc, err := analyzerd.NewReliableClient(srv.Addr(), analyzerd.ClientConfig{ID: fmt.Sprintf("h%02d", i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := rc.SendCF(hostFlow(i)); err != nil {
			t.Fatal(err)
		}
		if err := rc.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	m := wire.ShardMap{Shards: 2}
	for i := 0; i < m.Shards; i++ {
		if _, err := recoverShard(dir, m, i); err == nil || !strings.Contains(err.Error(), "other shards' clients") {
			t.Errorf("recoverShard(shard %d of %+v) on a one-shard fleet's directory = %v, want the misassembly refused", i, m, err)
		}
	}
	if _, err := recoverShard(dir, wire.ShardMap{Shards: 1}, 0); err != nil {
		t.Errorf("recoverShard under the directory's own map: %v", err)
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
	defer router.Stop()
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
		{"dump", `{"type":"dump"}`}, // no verb but the ingest types
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
		if tc.name == "dump" && parsed.Error != `unknown message type "dump"` {
			t.Errorf("dump: reply %q, want the unknown-type error", rep)
		}
	}
	if got := router.Stats().Rejected; got != int64(len(cases)) {
		t.Errorf("Rejected = %d, want %d", got, len(cases))
	}
	if _, err := router.DumpShard(0); err == nil {
		t.Error("DumpShard succeeded on a router with no fleet to reap shards from")
	}
}

// exchange sends one line on a fresh connection and returns the one reply
// line, or a note that none came.
func exchange(t *testing.T, addr, line string) string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintln(conn, line); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := conn.SetReadDeadline(wallDeadline(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	rep, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		return fmt.Sprintf("no reply (%v)", err)
	}
	return strings.TrimSuffix(rep, "\n")
}

// TestRouterShardAdmissionParity: a router in front of a shard and a lone
// daemon accept the same lines and refuse the same lines with the same
// permanent {"error":…}, because both run analyzerd.ParseMessage and
// nothing else decides. The router answers the line it accepts with a
// placement on the shard, and the shard acks it as the lone daemon does.
func TestRouterShardAdmissionParity(t *testing.T) {
	const cf = `"cf":{"src":1,"dst":2,"sport":7,"dport":8,"proto":17}`
	lines := []struct {
		name, line string
		accept     bool
	}{
		{"named and sequenced", `{"type":"cf",` + cf + `,"seq":1,"client":"h1"}`, true},
		{"unnamed", `{"type":"cf",` + cf + `,"seq":1}`, false},
		{"unsequenced", `{"type":"cf",` + cf + `,"client":"h1"}`, false},
		{"seq 0", `{"type":"cf",` + cf + `,"seq":0,"client":"h1"}`, false},
		{"negative seq", `{"type":"cf",` + cf + `,"seq":-3,"client":"h1"}`, false},
		{"unknown type", `{"type":"bogus","seq":1,"client":"h1"}`, false},
		{"two payloads", `{"type":"cf",` + cf + `,"step":{},"seq":1,"client":"h1"}`, false},
		{"sequenced dump", `{"type":"dump","seq":1,"client":"h1"}`, false},
		{"garbage", `not json`, false},
	}
	lone, err := analyzerd.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer lone.Close()
	m := wire.ShardMap{Shards: 1}
	shard := startTestShard(t, m, 0, "")
	defer shard.Close()
	router, err := StartRouter("127.0.0.1:0", RouterConfig{Map: m})
	if err != nil {
		t.Fatalf("StartRouter: %v", err)
	}
	defer router.Stop()
	router.SetShardAddr(0, shard.Addr())

	refused := 0
	for _, tc := range lines {
		want := exchange(t, lone.Addr(), tc.line)
		got := exchange(t, router.Addr(), tc.line)
		if tc.accept {
			if want != `{"ack":1,"client":"h1"}` {
				t.Errorf("%s: lone daemon replied %s, want the ack", tc.name, want)
			}
			placement := `{"nak":1,"client":"h1","moved":true,"owner":0,"map":{"shards":1},"addr":"` + shard.Addr() +
				`","error":"client \"h1\" is placed on shard 0 at ` + shard.Addr() + `","retry":true}`
			if got != placement {
				t.Errorf("%s: router replied %s, want the placement %s", tc.name, got, placement)
			}
			if got := exchange(t, shard.Addr(), tc.line); got != want {
				t.Errorf("%s: the placed shard replied %s, lone daemon %s", tc.name, got, want)
			}
			continue
		}
		if got != want {
			t.Errorf("%s: router replied %s, lone daemon %s", tc.name, got, want)
		}
		refused++
		if !strings.HasPrefix(want, `{"error":`) || strings.Contains(want, `"retry"`) {
			t.Errorf("%s: lone daemon replied %s, want a permanent {\"error\":…}", tc.name, want)
		}
	}
	if got := router.Stats().Rejected; got != int64(refused) {
		t.Errorf("router Rejected = %d, want %d", got, refused)
	}
	if got := router.Tallies()[0].Total(); got != 1 {
		t.Errorf("tally = %d, want the one placed line", got)
	}
	if st := shard.Stats(); st.Malformed != 0 {
		t.Errorf("the shard saw %d refused lines", st.Malformed)
	}
}

// TestRouterShardDownEndsConnection: with no shard reachable, the router
// ends a client connection that sent a sequenced line, with no sequenced
// reply of its own, and the reliable client reconnects with backoff and
// keeps the message for resubmission instead of dropping it.
func TestRouterShardDownEndsConnection(t *testing.T) {
	m := wire.ShardMap{Shards: 2}
	router, err := StartRouter("127.0.0.1:0", RouterConfig{Map: m})
	if err != nil {
		t.Fatalf("StartRouter: %v", err)
	}
	defer router.Stop()

	conn, err := net.Dial("tcp", router.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, `{"type":"cf","cf":{"src":1,"dst":2},"seq":1,"client":"h00"}`+"\n"); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := conn.SetReadDeadline(wallDeadline(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if rest, err := io.ReadAll(conn); err != nil || len(rest) != 0 {
		t.Errorf("router replied %q (%v), want the connection ended with no reply", rest, err)
	}

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
		t.Fatalf("Flush = %v; shard-down must end the connection, not redirect", err)
	}
	if rc.Pending() != 1 {
		t.Errorf("Pending = %d, want 1 (message retained for resubmission)", rc.Pending())
	}
	if got := router.Stats().ShardDown; got != 4 {
		t.Errorf("ShardDown = %d, want 4 (the raw connection, then one per attempt)", got)
	}
}

// TestRouterRelaysMovedNack: a misassembled fleet moved-NACKs disowned
// clients. The router places the client on the shard its own map names,
// that shard's moved NAK (which has no address) reaches the client on the
// placed connection, nothing re-sends the line to another shard, and the
// reliable client surfaces ErrRedirected — the misconfiguration is loud,
// not lost. (The name predates placement, when the router relayed the
// shard's NAK.) Two ways to misassemble a two-shard fleet:
//   - both daemons claim index 0, so shard 1's clients are disowned by
//     the daemon they land on, which names shard 1, its own link;
//   - both daemons run a three-shard map, so a client the router sends
//     to link 1 is one the shard there says belongs to shard 2, a shard
//     the router's map does not have (growing a consistent-hash ring only
//     moves clients to the new shard).
func TestRouterRelaysMovedNack(t *testing.T) {
	m := wire.ShardMap{Shards: 2}
	ring, err := wire.NewHashRing(m)
	if err != nil {
		t.Fatalf("NewHashRing: %v", err)
	}
	other := wire.ShardMap{Shards: 3}
	type shardAt struct {
		m     wire.ShardMap
		index int
	}
	for _, tc := range []struct {
		name   string
		shards [2]shardAt
		owner  int // the shard the disowned client's moved NAK names
	}{
		{"wrong-index", [2]shardAt{{m, 0}, {m, 0}}, 1},
		{"wrong-map", [2]shardAt{{other, 0}, {other, 1}}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s0 := startTestShard(t, tc.shards[0].m, tc.shards[0].index, "")
			defer s0.Close()
			s1 := startTestShard(t, tc.shards[1].m, tc.shards[1].index, "")
			defer s1.Close()
			router, err := StartRouter("127.0.0.1:0", RouterConfig{Map: m})
			if err != nil {
				t.Fatalf("StartRouter: %v", err)
			}
			defer router.Stop()
			router.SetShardAddr(0, s0.Addr())
			router.SetShardAddr(1, s1.Addr())

			// A client the router sends to link 1 and the daemon there
			// says belongs to tc.owner.
			shard1, err := wire.NewHashRing(tc.shards[1].m)
			if err != nil {
				t.Fatalf("NewHashRing: %v", err)
			}
			disowned := ""
			for i := 0; i < 1024 && disowned == ""; i++ {
				if name := fmt.Sprintf("h%03d", i); ring.Owner(name) == 1 && shard1.Owner(name) == tc.owner {
					disowned = name
				}
			}
			if disowned == "" {
				t.Fatal("no client name fits the misassembly")
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
				t.Fatalf("Flush = %v, want ErrRedirected from the placed shard", err)
			}
			if st := s0.Stats(); st.Moved != 0 || st.Duplicates != 0 {
				t.Errorf("shard 0 saw the line (%+v): a moved NAK was followed", st)
			}
			if r, p, c := s0.Counts(); r+p+c != 0 {
				t.Errorf("shard 0 ingested %d/%d/%d: a moved NAK was followed", r, p, c)
			}
			if st := s1.Stats(); st.Moved != 2 {
				t.Errorf("shard 1 moved-NACKed %d lines, want 2 (one per attempt)", st.Moved)
			}
			if rc.Stats.Placed != 2 || rc.Stats.Redirected != 2 || router.Tallies()[1].Total() != 2 {
				t.Errorf("client stats %+v, tallies %v: want each attempt placed on shard 1 and redirected there",
					rc.Stats, router.Tallies())
			}
		})
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
// through a router over live in-process shards, each behind a shardProxy
// the router places clients on. A kill fires from a proxy the moment the
// fleet-wide count of shard reply lines reaches it — after a chunk's
// lines are counted and before they are relayed — so the rest of the
// batch is still in flight to the dying shard.
func pipelinedRun(t *testing.T, shards int, kills []chaos.ShardKill) (bundle, diag []byte) {
	t.Helper()
	m := wire.ShardMap{Shards: shards}
	srvs := make([]*analyzerd.Server, shards)
	dirs := make([]string, shards)
	for i := range srvs {
		dirs[i] = t.TempDir()
		srvs[i] = startTestShard(t, m, i, dirs[i])
	}
	var kmu sync.Mutex
	ki, answered := 0, 0
	proxies := make([]*shardProxy, shards)
	onChunk := func(toShard bool, chunk []byte) {
		if toShard {
			return
		}
		kmu.Lock()
		defer kmu.Unlock()
		answered += bytes.Count(chunk, []byte{'\n'})
		for ki < len(kills) && kills[ki].AfterAcked <= answered {
			i := kills[ki].Shard
			ki++
			srvs[i].Abort() // SIGKILL stand-in: no drain, WAL abandoned
			// Not startTestShard: this is a relay goroutine, and only
			// the test's own may call t.Fatal.
			srv, err := analyzerd.ServeWith("127.0.0.1:0", testShardConfig(m, i, dirs[i]))
			if err != nil {
				t.Errorf("restarting shard %d: %v", i, err)
				return
			}
			srvs[i] = srv
			proxies[i].retarget(srv.Addr())
		}
	}
	for i, srv := range srvs {
		proxies[i] = startShardProxy(t, srv.Addr(), onChunk)
	}
	router, err := StartRouter("127.0.0.1:0", RouterConfig{Map: m})
	if err != nil {
		t.Fatalf("StartRouter: %v", err)
	}
	for i, p := range proxies {
		router.SetShardAddr(i, p.addr())
	}
	defer func() {
		router.Stop()
		kmu.Lock()
		defer kmu.Unlock()
		for _, s := range srvs {
			_ = s.Close()
		}
	}()

	hosts, batches := pipelinedStream()
	resubmitted := 0
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
		resubmitted += rc.Stats.Resubmitted
	}
	kmu.Lock()
	fired := ki
	kmu.Unlock()
	if fired != len(kills) {
		t.Fatalf("%d of %d kills fired", fired, len(kills))
	}
	if len(kills) > 0 && resubmitted == 0 {
		t.Errorf("no client resubmitted anything: no kill ended a placed connection with lines in flight")
	}

	router.Stop()
	kmu.Lock()
	states := drainStates(t, m, srvs, dirs)
	kmu.Unlock()
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
// in flight to it — and the drained bundle and diagnosis stay
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
