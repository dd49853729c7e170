package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vedrfolnir/internal/analyzerd"
	"vedrfolnir/internal/chaos"
	"vedrfolnir/internal/collective"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/topo"
	"vedrfolnir/internal/wire"
)

// rebalShard is the in-process stand-in for one supervised shard child:
// the live server, its durable directory, and the config its next
// restart boots under (PrepareShard rewrites it mid-rebalance, exactly
// like the Proc flag rewrite in the real fleet).
type rebalShard struct {
	srv *analyzerd.Server
	dir string
	m   wire.ShardMap
}

// rebalanceRun drives fleetStream through a router over live in-process
// shards, resizing from -> to after resizeAfter acked submissions and —
// when kill is non-nil — SIGKILL-style aborting that shard the moment
// the rebalance announces the kill's cut-point phase, restarting it on
// its WAL under whatever config a real supervisor would relaunch it
// with. Returns the drained merged bundle bytes, diagnosis JSON, and
// the resize report.
func rebalanceRun(t *testing.T, from, to, resizeAfter int, kill *chaos.RebalanceKill) (bundle, diag []byte, rep *ResizeReport) {
	t.Helper()
	m := wire.ShardMap{Shards: from}
	shs := make([]*rebalShard, from)
	addrs := make([]string, from)
	for i := range shs {
		shs[i] = &rebalShard{dir: t.TempDir(), m: m}
		shs[i].srv = startTestShard(t, m, i, shs[i].dir)
		addrs[i] = shs[i].srv.Addr()
	}

	var router *Router
	killed := false
	hooks := &RebalanceHooks{
		StartShard: func(i int, nm wire.ShardMap) (string, error) {
			for len(shs) <= i {
				shs = append(shs, nil)
			}
			sh := &rebalShard{dir: t.TempDir(), m: nm}
			sh.srv = startTestShard(t, nm, i, sh.dir)
			shs[i] = sh
			return sh.srv.Addr(), nil
		},
		PrepareShard: func(i int, nm wire.ShardMap) error {
			shs[i].m = nm // next restart boots under the new map
			return nil
		},
		StopShard: func(i int) {
			_ = shs[i].srv.Close()
			shs = shs[:i] // donors retire highest-index first
		},
		OnPhase: func(phase string) {
			if kill == nil || killed || phase != kill.Phase {
				return
			}
			killed = true
			sh := shs[kill.Shard]
			sh.srv.Abort() // SIGKILL stand-in: no drain, WAL abandoned
			sh.srv = startTestShard(t, sh.m, kill.Shard, sh.dir)
			router.SetShardAddr(kill.Shard, sh.srv.Addr())
		},
	}

	router, err := StartRouter("127.0.0.1:0", RouterConfig{
		Map: m, Addrs: addrs,
		Rebalance:  hooks,
		HandoffDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("StartRouter: %v", err)
	}
	defer func() {
		router.Close()
		for _, sh := range shs {
			_ = sh.srv.Close()
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

	subs := fleetStream()
	send := func(lo, hi int) {
		for _, sub := range subs[lo:hi] {
			rc := client(sub.host)
			if err := sub.send(rc); err != nil {
				t.Fatalf("send from %s: %v", sub.host, err)
			}
			if err := rc.Flush(); err != nil {
				t.Fatalf("flush from %s: %v", sub.host, err)
			}
		}
	}
	send(0, resizeAfter)
	rep, err = router.Resize(to, 0)
	if err != nil {
		t.Fatalf("Resize(%d): %v", to, err)
	}
	if kill != nil && !killed {
		t.Fatalf("kill %+v never fired: phase not announced", *kill)
	}
	send(resizeAfter, len(subs))

	for _, rc := range clients {
		if err := rc.Close(); err != nil {
			t.Fatalf("client close: %v", err)
		}
	}

	states := make([]*wire.ShardState, 0, router.Shards())
	for i := 0; i < router.Shards(); i++ {
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
	return bb.Bytes(), dj, rep
}

// resizeCut picks the submission index at which the rebalance tests
// trigger the resize: late enough that every host in the stream's first
// three quarters has live shard state, so the clients the 2<->3 ring
// delta reassigns are guaranteed to have messages to hand off (the
// MovedClients assertions below verify that, rather than assuming
// which hosts move).
func resizeCut() int {
	subs := fleetStream()
	cut := 0
	for i, s := range subs {
		if s.host <= "h08" {
			cut = i + 1
		}
	}
	return cut
}

// TestFleetResizeByteIdentity: growing 2->3 and shrinking 3->2
// mid-stream, with live handoff of every moved client, yields a merged
// bundle and diagnosis byte-identical to a fixed-map run that never
// resized — the rebalance is invisible in the data.
func TestFleetResizeByteIdentity(t *testing.T) {
	half := resizeCut()
	refBundle, refDiag := fleetRun(t, 2, nil)
	if !strings.Contains(string(refDiag), "critical_path") {
		t.Fatalf("reference diagnosis looks empty: %s", refDiag)
	}

	t.Run("grow-2-to-3", func(t *testing.T) {
		gotBundle, gotDiag, rep := rebalanceRun(t, 2, 3, half, nil)
		if !bytes.Equal(gotBundle, refBundle) {
			t.Errorf("merged bundle differs after grow:\n%s\nvs\n%s", gotBundle, refBundle)
		}
		if !bytes.Equal(gotDiag, refDiag) {
			t.Errorf("diagnosis differs after grow:\n%s\nvs\n%s", gotDiag, refDiag)
		}
		if rep.From != 2 || rep.To != 3 || rep.Epoch != 1 {
			t.Errorf("report = %+v, want From=2 To=3 Epoch=1", rep)
		}
		if len(rep.Donors) != 2 {
			t.Errorf("grow donors = %v, want both old shards", rep.Donors)
		}
		if rep.MovedClients == 0 || rep.MovedMessages == 0 {
			t.Errorf("grow moved nothing: %+v", rep)
		}
		if rep.Adopted != int64(rep.MovedMessages) {
			t.Errorf("adoptees ingested %d of %d moved messages", rep.Adopted, rep.MovedMessages)
		}
	})
	t.Run("shrink-3-to-2", func(t *testing.T) {
		gotBundle, gotDiag, rep := rebalanceRun(t, 3, 2, half, nil)
		if !bytes.Equal(gotBundle, refBundle) {
			t.Errorf("merged bundle differs after shrink:\n%s\nvs\n%s", gotBundle, refBundle)
		}
		if !bytes.Equal(gotDiag, refDiag) {
			t.Errorf("diagnosis differs after shrink:\n%s\nvs\n%s", gotDiag, refDiag)
		}
		if len(rep.Donors) != 1 || rep.Donors[0] != 2 {
			t.Errorf("shrink donors = %v, want just the removed shard", rep.Donors)
		}
		if rep.MovedClients == 0 {
			t.Errorf("shrink moved nothing: %+v", rep)
		}
	})
}

// TestFleetRebalanceKillAnyShardByteIdentity is the headline elastic
// robustness contract: SIGKILL any shard at any reachable cut point of
// a live rebalance — before the quiesce fence, during handoff delivery,
// or after the map flip — let recovery bring it back on its WAL under
// the config a supervisor would relaunch it with, and the drained
// merged bundle AND diagnosis are byte-identical to an unbroken
// fixed-map run's.
func TestFleetRebalanceKillAnyShardByteIdentity(t *testing.T) {
	half := resizeCut()
	refBundle, refDiag := fleetRun(t, 2, nil)

	for _, dir := range []struct {
		name     string
		from, to int
	}{
		{"grow", 2, 3},
		{"shrink", 3, 2},
	} {
		plan := chaos.NewWALFaults(11).RebalanceKills(dir.from, dir.to)
		if len(plan) == 0 {
			t.Fatalf("%s kill plan is empty", dir.name)
		}
		for _, kill := range plan {
			kill := kill
			t.Run(fmt.Sprintf("%s-kill-shard-%d-%s", dir.name, kill.Shard, kill.Phase), func(t *testing.T) {
				gotBundle, gotDiag, _ := rebalanceRun(t, dir.from, dir.to, half, &kill)
				if !bytes.Equal(gotBundle, refBundle) {
					t.Errorf("merged bundle differs after killing shard %d at %s:\n%s\nvs\n%s",
						kill.Shard, kill.Phase, gotBundle, refBundle)
				}
				if !bytes.Equal(gotDiag, refDiag) {
					t.Errorf("diagnosis differs after killing shard %d at %s",
						kill.Shard, kill.Phase)
				}
			})
		}
	}
}

// TestFleetResizeUnderLoad resizes while senders are still in flight:
// moved clients ride out the quiesce fence on retryable NACKs and every
// message lands exactly once — the merged bundle matches the unbroken
// fixed-map reference. (Primarily a -race exercise of the fence and the
// atomic map flip against live traffic.)
func TestFleetResizeUnderLoad(t *testing.T) {
	refBundle, _ := fleetRun(t, 2, nil)

	m := wire.ShardMap{Shards: 2}
	shs := make([]*rebalShard, 2)
	addrs := make([]string, 2)
	for i := range shs {
		shs[i] = &rebalShard{dir: t.TempDir(), m: m}
		shs[i].srv = startTestShard(t, m, i, shs[i].dir)
		addrs[i] = shs[i].srv.Addr()
	}
	router, err := StartRouter("127.0.0.1:0", RouterConfig{
		Map: m, Addrs: addrs,
		Rebalance: &RebalanceHooks{
			StartShard: func(i int, nm wire.ShardMap) (string, error) {
				for len(shs) <= i {
					shs = append(shs, nil)
				}
				sh := &rebalShard{dir: t.TempDir(), m: nm}
				sh.srv = startTestShard(t, nm, i, sh.dir)
				shs[i] = sh
				return sh.srv.Addr(), nil
			},
		},
	})
	if err != nil {
		t.Fatalf("StartRouter: %v", err)
	}
	defer func() {
		router.Close()
		for _, sh := range shs {
			_ = sh.srv.Close()
		}
	}()

	// One sender goroutine per host keeps traffic crossing the fence
	// while the main goroutine resizes.
	byHost := map[string][]submission{}
	var hosts []string
	for _, sub := range fleetStream() {
		if _, ok := byHost[sub.host]; !ok {
			hosts = append(hosts, sub.host)
		}
		byHost[sub.host] = append(byHost[sub.host], sub)
	}
	errs := make(chan error, len(hosts))
	var wg sync.WaitGroup
	for _, host := range hosts {
		wg.Add(1)
		go func(host string, subs []submission) {
			defer wg.Done()
			rc, err := analyzerd.NewReliableClient(router.Addr(), analyzerd.ClientConfig{
				ID: host, MaxAttempts: 40,
				BackoffBase: 5 * time.Millisecond, BackoffMax: 100 * time.Millisecond,
			})
			if err != nil {
				errs <- fmt.Errorf("%s: %v", host, err)
				return
			}
			for _, sub := range subs {
				if err := sub.send(rc); err != nil {
					errs <- fmt.Errorf("%s: %v", host, err)
					return
				}
				if err := rc.Flush(); err != nil {
					errs <- fmt.Errorf("%s flush: %v", host, err)
					return
				}
			}
			errs <- rc.Close()
		}(host, byHost[host])
	}

	if _, err := router.Resize(3, 0); err != nil {
		t.Fatalf("Resize under load: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("sender failed across the rebalance: %v", err)
		}
	}

	states := make([]*wire.ShardState, 0, router.Shards())
	for i := 0; i < router.Shards(); i++ {
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
	if !bytes.Equal(bb.Bytes(), refBundle) {
		t.Errorf("merged bundle differs after resize under load:\n%s\nvs\n%s", bb.Bytes(), refBundle)
	}
}

// TestFleetResizeUnderPipelinedLoad resizes 2->3 while 8 clients stream
// pipelined batches. drainInflight must return only after every reply to
// a line that had passed the fence was relayed — so when the handoff phase
// begins no fenced client has anything in flight on a link, the donor
// dumps already hold everything those clients were acknowledged, and the
// merged bundle equals the one a fleet that never resized produces.
func TestFleetResizeUnderPipelinedLoad(t *testing.T) {
	const clients, rounds, perBatch = 8, 6, 8
	type msg func(rc *analyzerd.ReliableClient) error
	stream := func(c int) [][]msg {
		var batches [][]msg
		cf := hostFlow(c)
		for r := 0; r < rounds; r++ {
			var batch []msg
			if r == 0 {
				batch = append(batch, func(rc *analyzerd.ReliableClient) error { return rc.SendCF(cf) })
			}
			for k := 0; k < perBatch; k++ {
				rec := collective.StepRecord{
					Host: topo.NodeID(c + 1), Step: r*perBatch + k, Flow: cf,
					Bytes: int64(1000*(c+1) + k), End: simtime.Time(100*(r*perBatch+k) + c + 1),
				}
				batch = append(batch, func(rc *analyzerd.ReliableClient) error { return rc.SendStep(rec) })
			}
			batches = append(batches, batch)
		}
		return batches
	}
	// run streams every client's batches through a 2-shard router; with
	// resize set, the fleet grows to 3 once a third of the batches are in.
	run := func(t *testing.T, resize bool) []byte {
		m := wire.ShardMap{Shards: 2}
		shs := make([]*rebalShard, 2)
		addrs := make([]string, 2)
		for i := range shs {
			shs[i] = &rebalShard{dir: t.TempDir(), m: m}
			shs[i].srv = startTestShard(t, m, i, shs[i].dir)
			addrs[i] = shs[i].srv.Addr()
		}
		oldRing, err := wire.NewHashRing(m)
		if err != nil {
			t.Fatal(err)
		}
		newRing, err := wire.NewHashRing(wire.ShardMap{Shards: 3, Epoch: 1})
		if err != nil {
			t.Fatal(err)
		}
		var router *Router
		hooks := &RebalanceHooks{
			StartShard: func(i int, nm wire.ShardMap) (string, error) {
				sh := &rebalShard{dir: t.TempDir(), m: nm}
				sh.srv = startTestShard(t, nm, i, sh.dir)
				shs = append(shs, sh)
				return sh.srv.Addr(), nil
			},
			OnPhase: func(phase string) {
				if phase != PhaseDuringHandoff {
					return
				}
				for i := 0; i < 2; i++ {
					l := router.link(i)
					l.mu.Lock()
					for f := l.head; f != nil; f = f.next {
						if oldRing.Owner(f.client) != newRing.Owner(f.client) {
							t.Errorf("fenced client %s still has seq %d in flight on link %d at the handoff", f.client, f.seq, i)
						}
					}
					l.mu.Unlock()
				}
			},
		}
		router, err = StartRouter("127.0.0.1:0", RouterConfig{Map: m, Addrs: addrs, Rebalance: hooks})
		if err != nil {
			t.Fatalf("StartRouter: %v", err)
		}
		defer func() {
			router.Close()
			for _, sh := range shs {
				_ = sh.srv.Close()
			}
		}()

		var flushed atomic.Int64
		errs := make(chan error, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rc, err := analyzerd.NewReliableClient(router.Addr(), analyzerd.ClientConfig{
					ID: fmt.Sprintf("h%02d", c), MaxAttempts: 40,
					BackoffBase: 5 * time.Millisecond, BackoffMax: 100 * time.Millisecond,
				})
				if err != nil {
					errs <- err
					return
				}
				for _, batch := range stream(c) {
					for _, send := range batch {
						if err := send(rc); err != nil {
							errs <- err
							return
						}
					}
					if err := rc.Flush(); err != nil {
						errs <- fmt.Errorf("h%02d flush: %w", c, err)
						return
					}
					flushed.Add(1)
				}
				errs <- rc.Close()
			}(c)
		}
		if resize {
			eventually(t, "a third of the batches", func() bool { return flushed.Load() >= clients*rounds/3 })
			rep, err := router.Resize(3, 0)
			if err != nil {
				t.Fatalf("Resize under pipelined load: %v", err)
			}
			if rep.MovedClients == 0 || rep.Adopted != int64(rep.MovedMessages) {
				t.Errorf("resize report %+v: nothing moved, or adoptees did not ingest all of it", rep)
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("sender failed: %v", err)
			}
		}
		if got := router.inflight.Load(); got != 0 {
			t.Errorf("inflight = %d after every client was acknowledged", got)
		}
		states := make([]*wire.ShardState, 0, router.Shards())
		for i := 0; i < router.Shards(); i++ {
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
		return bb.Bytes()
	}
	ref := run(t, false)
	if got := run(t, true); !bytes.Equal(got, ref) {
		t.Errorf("merged bundle differs after a resize under pipelined load")
	}
}
