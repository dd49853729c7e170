package fleet

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"vedrfolnir/internal/analyzerd"
	"vedrfolnir/internal/wire"
)

// Live rebalance: Resize installs a new shard map without restarting the
// fleet. The state machine, in order:
//
//  1. before-quiesce — new shards (grow) start under the next map.
//  2. The router fences every moved client (retryable NACKs) and waits
//     for in-flight routed submissions to settle.
//  3. Every donor shard is dumped; the dumps slice into wire.Handoff
//     units, one per (donor, adoptee) pair, persisted to HandoffDir.
//  4. during-handoff — surviving shards get their restart args rewritten
//     (PrepareShard) and then the "remap" verb: they install the next
//     map and drop moved clients (already captured in step 3).
//  5. Each handoff is delivered with the "adopt" verb; the adoptee WALs,
//     re-ingests, and snapshots the moved state before acknowledging.
//  6. The router flips its own map atomically and lifts the fence.
//  7. after-flip — removed shards (shrink) stop.
//
// Every shard exchange retries until rebalanceTimeout, so a SIGKILLed
// shard's supervised restart is a delay, not a failure; idempotent verbs
// (epoch-checked remap, per-donor-deduplicated adopt) make the retries
// safe, and the drain-side merge dedup absorbs any duplicate copies a
// mid-handoff crash leaves behind.

// Rebalance phase announcements, in the order Resize reaches them. The
// strings match internal/chaos.RebalanceKills cut points so a chaos
// harness can key kills directly off OnPhase.
const (
	PhaseBeforeQuiesce = "before-quiesce"
	PhaseDuringHandoff = "during-handoff"
	PhaseAfterFlip     = "after-flip"
)

// RebalanceHooks are the process-level operations a live Resize needs
// from whoever supervises the shard daemons (the Fleet, or a test
// harness). All hooks are called from the resizing goroutine.
type RebalanceHooks struct {
	// StartShard launches shard i under map m (a grow target) and
	// returns its announced listen address. Required for grows.
	StartShard func(i int, m wire.ShardMap) (addr string, err error)
	// PrepareShard rewrites shard i's restart arguments to map m, so a
	// crash after the remap restarts the shard under the map it
	// acknowledged. Called before the remap verb is sent. Optional.
	PrepareShard func(i int, m wire.ShardMap) error
	// StopShard retires shard i (a shrink donor) after the flip.
	// Optional.
	StopShard func(i int)
	// OnPhase observes each phase announcement — the chaos harness's
	// kill trigger. Optional.
	OnPhase func(phase string)
}

// ResizeReport summarizes one completed rebalance.
type ResizeReport struct {
	// From and To are the old and new shard counts; Epoch is the new
	// map's epoch.
	From  int   `json:"from"`
	To    int   `json:"to"`
	Epoch int64 `json:"epoch"`
	// Donors are the shards whose state was dumped and sliced.
	Donors []int `json:"donors,omitempty"`
	// Handoffs counts delivered handoff units; MovedClients and
	// MovedMessages what they carried; Adopted what the adoptees
	// acknowledged ingesting (retried deliveries dedup to zero).
	Handoffs      int   `json:"handoffs"`
	MovedClients  int   `json:"moved_clients"`
	MovedMessages int   `json:"moved_messages"`
	Adopted       int64 `json:"adopted"`
}

// phase announces a rebalance cut point to the hooks.
func (r *Router) phase(hooks *RebalanceHooks, name string) {
	r.cfg.Log.Info("rebalance phase", "phase", name)
	if hooks.OnPhase != nil {
		hooks.OnPhase(name)
	}
}

// Resize grows or shrinks the fleet to the given shard count (and vnode
// replica count; 0 keeps the current one) without restarting it. One
// resize runs at a time; a concurrent call fails fast. On success the
// router routes under the new map and every moved client has been handed
// off; on failure before the remap step the old topology is restored.
func (r *Router) Resize(shards, replicas int) (*ResizeReport, error) {
	hooks := r.cfg.Rebalance
	if hooks == nil {
		return nil, fmt.Errorf("fleet: this router has no rebalance hooks")
	}
	if !r.resizeMu.TryLock() {
		return nil, fmt.Errorf("fleet: a rebalance is already in progress")
	}
	defer r.resizeMu.Unlock()

	cur := r.Map()
	if shards < 1 {
		return nil, fmt.Errorf("fleet: resize to %d shards, want >= 1", shards)
	}
	if replicas == 0 {
		replicas = cur.Replicas
	}
	if shards == cur.Shards && replicas == cur.Replicas {
		return nil, fmt.Errorf("fleet: already %d shards with %d replicas", shards, replicas)
	}
	next := wire.ShardMap{Shards: shards, Replicas: replicas, Epoch: cur.Epoch + 1}
	newRing, err := wire.NewHashRing(next)
	if err != nil {
		return nil, fmt.Errorf("fleet: resize: %w", err)
	}
	deadline := r.now().Add(rebalanceTimeout)
	report := &ResizeReport{From: cur.Shards, To: next.Shards, Epoch: next.Epoch}
	r.cfg.Log.Info("rebalance starting", "from", cur.Shards, "to", next.Shards, "epoch", next.Epoch)

	r.phase(hooks, PhaseBeforeQuiesce)

	// Grow targets start under the next map so they never have to be
	// remapped — their first epoch is the new one.
	var started []int
	for i := cur.Shards; i < next.Shards; i++ {
		if hooks.StartShard == nil {
			return nil, fmt.Errorf("fleet: growing to %d shards needs a StartShard hook", next.Shards)
		}
		addr, err := hooks.StartShard(i, next)
		if err != nil {
			r.stopStarted(started, cur.Shards, hooks)
			return nil, fmt.Errorf("fleet: starting shard %d: %w", i, err)
		}
		l := r.newLink(i, addr)
		r.rmu.Lock()
		r.links = append(r.links, l)
		r.rmu.Unlock()
		started = append(started, i)
	}

	// Fence every client the next map moves, then wait for submissions
	// already past the fence to finish their shard round trip — after
	// the drain, a donor dump is guaranteed to include them.
	r.rmu.Lock()
	oldRing := r.ring
	r.quiesce = func(client string) bool {
		return oldRing.Owner(client) != newRing.Owner(client)
	}
	r.rmu.Unlock()
	if err := r.drainInflight(deadline); err != nil {
		r.abortResize(started, cur.Shards, hooks)
		return nil, err
	}

	donors := wire.DonorShards(cur, next)
	report.Donors = donors
	var handoffs []*wire.Handoff
	for _, d := range donors {
		state, err := r.dumpRetry(d, deadline)
		if err != nil {
			r.abortResize(started, cur.Shards, hooks)
			return nil, fmt.Errorf("fleet: rebalance dump of shard %d: %w", d, err)
		}
		hs, err := wire.BuildHandoffs(state, next)
		if err != nil {
			r.abortResize(started, cur.Shards, hooks)
			return nil, fmt.Errorf("fleet: slicing shard %d: %w", d, err)
		}
		handoffs = append(handoffs, hs...)
	}
	for _, h := range handoffs {
		report.MovedClients += len(h.Acked)
		report.MovedMessages += len(h.Messages)
	}
	if err := r.persistHandoffs(handoffs); err != nil {
		r.abortResize(started, cur.Shards, hooks)
		return nil, err
	}

	r.phase(hooks, PhaseDuringHandoff)

	// Point of no return: from here, failures leave the fleet mid-flight
	// (fence lifted, old map still routing) rather than rolled back —
	// the epoch-checked verbs make a retried Resize converge, and the
	// drain-side merge dedup keeps the diagnosis correct meanwhile.
	survivors := cur.Shards
	if next.Shards < survivors {
		survivors = next.Shards
	}
	for i := 0; i < survivors; i++ {
		if hooks.PrepareShard != nil {
			if err := hooks.PrepareShard(i, next); err != nil {
				r.liftFence()
				return nil, fmt.Errorf("fleet: preparing shard %d: %w", i, err)
			}
		}
		if err := r.remapRetry(i, next, deadline); err != nil {
			r.liftFence()
			return nil, fmt.Errorf("fleet: remapping shard %d: %w", i, err)
		}
	}
	for _, h := range handoffs {
		n, err := r.adoptRetry(h, deadline)
		if err != nil {
			r.liftFence()
			return nil, fmt.Errorf("fleet: handing off shard %d -> %d: %w", h.From, h.To, err)
		}
		report.Handoffs++
		report.Adopted += n
	}

	// Flip: the router routes under the next map and re-admits the moved
	// clients in one atomic swap.
	r.rmu.Lock()
	r.cur = next
	r.ring = newRing
	r.quiesce = nil
	retired := r.truncateLinksLocked(next.Shards)
	r.rmu.Unlock()
	closeLinks(retired)

	r.phase(hooks, PhaseAfterFlip)

	// Donors retire highest-index first so a supervisor backed by a
	// slice can truncate from the tail.
	for i := cur.Shards - 1; i >= next.Shards; i-- {
		if hooks.StopShard != nil {
			hooks.StopShard(i)
		}
	}
	r.count(func(s *RouterStats) { s.Resizes++ })
	r.cfg.Log.Info("rebalance complete", "epoch", next.Epoch, "shards", next.Shards,
		"handoffs", report.Handoffs, "moved", report.MovedMessages)
	return report, nil
}

// liftFence re-admits fenced clients (mid-flight failure path).
func (r *Router) liftFence() {
	r.rmu.Lock()
	r.quiesce = nil
	r.rmu.Unlock()
}

// stopStarted retires grow targets that were launched before a failure.
func (r *Router) stopStarted(started []int, oldShards int, hooks *RebalanceHooks) {
	r.rmu.Lock()
	retired := r.truncateLinksLocked(oldShards)
	r.rmu.Unlock()
	closeLinks(retired)
	for k := len(started) - 1; k >= 0; k-- { // highest-index first, like a shrink
		if hooks.StopShard != nil {
			hooks.StopShard(started[k])
		}
	}
}

// truncateLinksLocked cuts the topology down to n links and returns the
// ones cut off, for the caller to close once rmu is released (nothing
// routes to them any more: their clients were fenced and drained).
// Callers hold r.rmu.
func (r *Router) truncateLinksLocked(n int) []*shardLink {
	if len(r.links) <= n {
		return nil
	}
	retired := append([]*shardLink(nil), r.links[n:]...)
	r.links = r.links[:n]
	return retired
}

func closeLinks(links []*shardLink) {
	for _, l := range links {
		l.close()
	}
}

// abortResize restores the old topology after a failure before the remap
// step: the fence lifts, grow targets stop, and no shard ever saw the
// next epoch.
func (r *Router) abortResize(started []int, oldShards int, hooks *RebalanceHooks) {
	r.liftFence()
	r.stopStarted(started, oldShards, hooks)
}

// drainInflight waits for every submission already past the fence to
// have its reply relayed (or its link's death answered for it).
func (r *Router) drainInflight(deadline time.Time) error {
	for r.inflight.Load() != 0 {
		//lint:ignore nosystime Time.After is a pure comparison; the clock read is sanctioned in now()
		if r.now().After(deadline) {
			return fmt.Errorf("fleet: %d routed submissions did not settle before the deadline",
				r.inflight.Load())
		}
		//lint:ignore nosystime pacing a poll on real in-flight TCP round trips
		time.Sleep(time.Millisecond)
	}
	return nil
}

// persistHandoffs writes each handoff unit to HandoffDir under its
// deterministic filename before anything is delivered.
func (r *Router) persistHandoffs(handoffs []*wire.Handoff) error {
	dir := r.cfg.HandoffDir
	if dir == "" || len(handoffs) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("fleet: handoff dir: %w", err)
	}
	for _, h := range handoffs {
		b, err := json.Marshal(h)
		if err != nil {
			return fmt.Errorf("fleet: encoding handoff: %w", err)
		}
		if err := os.WriteFile(filepath.Join(dir, h.Filename()), b, 0o644); err != nil {
			return fmt.Errorf("fleet: persisting handoff: %w", err)
		}
	}
	return nil
}

// retryUntil is the one retry-until-deadline loop of the service tier:
// it runs one shard exchange until it succeeds, fails permanently
// (retry false), or the deadline passes, backing off in between —
// transport failures and retryable replies are a supervised restart in
// progress, not a verdict.
func (r *Router) retryUntil(deadline time.Time, what string, shard int, try func() (retry bool, err error)) error {
	for {
		retry, err := try()
		//lint:ignore nosystime Time.After is a pure comparison; the clock read is sanctioned in now()
		if err == nil || !retry || r.now().After(deadline) {
			return err
		}
		r.cfg.Log.Warn("shard exchange retrying", "what", what, "shard", shard, "err", err)
		//lint:ignore nosystime backoff between retries against a real restarting process
		time.Sleep(50 * time.Millisecond)
	}
}

// dumpRetry dumps one shard (a rebalance donor, or any shard at drain
// time), riding out supervised restarts until the deadline.
func (r *Router) dumpRetry(i int, deadline time.Time) (state *wire.ShardState, err error) {
	err = r.retryUntil(deadline, "dump", i, func() (retry bool, err error) {
		state, err = r.DumpShard(i)
		return true, err
	})
	return state, err
}

// adminReply is the decoded outcome of a remap or adopt exchange.
type adminReply struct {
	Error   string `json:"error"`
	Retry   bool   `json:"retry"`
	Adopted int64  `json:"adopted"`
}

// adminRetry sends one admin line (newline included) to a shard until it
// succeeds, the shard answers with a permanent error, or the deadline
// passes. Transport failures and retryable replies (an overloaded queue,
// a restart mid-exchange) back off and retry.
func (r *Router) adminRetry(shard int, line []byte, what string, deadline time.Time) (*adminReply, error) {
	var parsed adminReply
	err := r.retryUntil(deadline, what, shard, func() (bool, error) {
		l := r.link(shard)
		if l == nil {
			return true, fmt.Errorf("no shard %d in the current map", shard)
		}
		rep, err := l.roundTrip(line)
		if err != nil {
			return true, err
		}
		parsed = adminReply{}
		if err := json.Unmarshal(rep, &parsed); err != nil {
			return false, fmt.Errorf("%s reply from shard %d: %w", what, shard, err)
		}
		if parsed.Error == "" {
			return false, nil
		}
		if !parsed.Retry {
			return false, fmt.Errorf("%s rejected by shard %d: %s", what, shard, parsed.Error)
		}
		return true, fmt.Errorf("%s deferred by shard %d: %s", what, shard, parsed.Error)
	})
	return &parsed, err
}

// remapRetry installs the next map at a surviving shard. A shard that
// crashed after a successful remap restarts under the next map (its
// args were prepared first) and answers the retry with an idempotent
// success.
func (r *Router) remapRetry(i int, next wire.ShardMap, deadline time.Time) error {
	m, err := json.Marshal(next)
	if err != nil {
		return err
	}
	line := []byte(fmt.Sprintf(`{"type":"remap","map":%s}`+"\n", m))
	_, err = r.adminRetry(i, line, "remap", deadline)
	return err
}

// adoptRetry delivers one handoff unit to its target shard, returning
// how many messages the adoptee acknowledged ingesting (a retried
// delivery after a mid-adopt crash dedups to what was missing).
func (r *Router) adoptRetry(h *wire.Handoff, deadline time.Time) (int64, error) {
	b, err := json.Marshal(h)
	if err != nil {
		return 0, err
	}
	line := []byte(fmt.Sprintf(`{"type":"adopt","handoff":%s}`+"\n", b))
	rep, err := r.adminRetry(h.To, line, "adopt", deadline)
	if err != nil {
		return 0, err
	}
	return rep.Adopted, nil
}

// handleResize serves the router's admin resize verb: the operator (or
// the cluster runner's -resize-to hook) asks the fleet to rebalance to
// msg.Map.Shards/.Replicas; the epoch is the router's to assign. The
// resize runs synchronously on this connection's handler and answers
// with the ResizeReport.
func (r *Router) handleResize(conn net.Conn, msg *analyzerd.Message) {
	report, err := r.Resize(msg.Map.Shards, msg.Map.Replicas)
	var b []byte
	if err == nil {
		b, err = json.Marshal(report)
	}
	if err != nil {
		r.write(conn, analyzerd.NakLine(0, "", err.Error(), false))
		return
	}
	r.write(conn, append(b, '\n'))
}
