package analyzerd

import (
	"encoding/json"
	"fmt"
	"net"

	"vedrfolnir/internal/wire"
)

// Shard-side half of a live fleet rebalance. The router drives the
// protocol: it dumps donors, slices the dumps into wire.Handoff units,
// delivers each to its target with the "adopt" verb, and finally
// installs the new map at every surviving shard with "remap". Both
// verbs run on the applier goroutine — the same serialization point as
// ingest — so the WAL, snapshots, and the sourced stream never see a
// concurrent writer.

// handleAdmin routes the admin-plane verbs off the connection handler.
// resize is router-only and always an error here. The rest pass the one
// gate that tells a fleet member from a lone daemon: dump exports the
// whole state and remap/adopt rewrite it on the sender's say-so, which
// only a process started under a fleet's router has reason to honour.
// dump is answered in place; remap/adopt enqueue for the applier exactly
// like ingest, with the same overload NACK so a saturated shard sheds
// the (retryable) admin verb instead of deadlocking behind its own queue.
func (s *Server) handleAdmin(conn net.Conn, msg *Message) {
	if msg.Type == TypeResize {
		s.replyError(conn, "resize targets the fleet router, not a shard")
		return
	}
	if !s.fleetMember {
		s.replyError(conn, "not a fleet shard")
		return
	}
	if msg.Type == TypeDump {
		s.replyDump(conn)
		return
	}
	item := ingestItem{msg: msg, conn: conn}
	select {
	case s.queue <- item:
	default:
		s.count(func(st *ServerStats) { st.Overloaded++ })
		s.log.Warn("ingest queue full, shedding admin verb", "type", msg.Type)
		s.replyRetry(conn, "overloaded")
	}
}

// applyRemap installs a newer-epoch shard map live: the ownership ring
// is swapped, and retained messages and ack windows for clients the new
// map assigns elsewhere are dropped (they were captured in the donor
// dump first). Stale epochs are rejected; a re-delivery of the current
// map is an idempotent success, so the router can retry through a kill.
func (s *Server) applyRemap(item ingestItem) {
	next := *item.msg.Map
	cur := s.curShardMap()
	switch {
	case next.Epoch < cur.Epoch:
		s.count(func(st *ServerStats) { st.StaleEpochs++ })
		s.log.Warn("stale remap rejected", "epoch", next.Epoch, "current", cur.Epoch)
		s.replyError(item.conn,
			fmt.Sprintf("stale shard map epoch %d (shard at epoch %d)", next.Epoch, cur.Epoch))
		return
	case next.Epoch == cur.Epoch:
		if next == cur {
			// Retried delivery of the map already installed.
			s.replyf(item.conn, `{"remapped":true,"epoch":%d,"reassigned":0}`+"\n", cur.Epoch)
		} else {
			s.replyError(item.conn,
				fmt.Sprintf("conflicting shard map at epoch %d", cur.Epoch))
		}
		return
	}
	ring, err := wire.NewHashRing(next)
	if err != nil {
		s.replyError(item.conn, err.Error())
		return
	}
	if s.index >= next.Shards {
		// A shrink stops removed shards; it never remaps them — a shard
		// must not install a map that disowns everything it holds.
		s.replyError(item.conn,
			fmt.Sprintf("map of %d shards removes shard %d", next.Shards, s.index))
		return
	}
	reassigned := s.installMap(next, ring)
	s.count(func(st *ServerStats) { st.Remaps++ })
	s.log.Info("shard map installed", "epoch", next.Epoch, "shards", next.Shards, "reassigned", reassigned)
	if s.wal != nil {
		// Cutover durability rides on the restart arguments (the
		// supervisor rewrites them before sending remap); the snapshot
		// just compacts the moved clients out of the WAL now instead of
		// on the next recovery.
		if err := s.snapshotNow(); err != nil {
			s.log.Warn("post-remap snapshot failed", "err", err.Error())
		}
	}
	s.replyf(item.conn, `{"remapped":true,"epoch":%d,"reassigned":%d}`+"\n", next.Epoch, reassigned)
}

// installMap swaps the ring and drops the retained messages and ack
// windows the new map assigns elsewhere, returning how many messages
// went.
func (s *Server) installMap(next wire.ShardMap, ring *wire.HashRing) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shardMu.Lock()
	s.shardMap, s.ring = next, ring
	s.shardMu.Unlock()
	kept := make([]wire.SourcedMessage, 0, len(s.sourced)) // a new slice: readers may hold the old one
	for _, sm := range s.sourced {
		if _, moved := ring.Moved(sm.Client, s.index); !moved {
			kept = append(kept, sm)
		}
	}
	reassigned := len(s.sourced) - len(kept)
	s.sourced = kept
	for id := range s.clients {
		if _, moved := ring.Moved(id, s.index); moved {
			delete(s.clients, id) // the new owner holds this window now
		}
	}
	return reassigned
}

// applyAdopt absorbs one handoff: the moved clients' retained messages
// are WAL-appended (so a crash replays them) and re-ingested, and
// their ack highwaters install as dedup baselines. The handoff must
// carry exactly the shard's current map — behind is stale, ahead means
// the router's remap is still in flight (retryable). A re-delivered
// handoff from the same donor at the same epoch short-circuits, so
// retries through a mid-adopt kill stay exactly-once for sequenced
// streams.
func (s *Server) applyAdopt(item ingestItem) {
	h := item.msg.Handoff
	cur := s.curShardMap()
	switch {
	case h.Format != wire.HandoffFormat:
		s.replyError(item.conn,
			fmt.Sprintf("unsupported handoff format %d", h.Format))
		return
	case h.To != s.index:
		s.replyError(item.conn,
			fmt.Sprintf("handoff targets shard %d, this is shard %d", h.To, s.index))
		return
	case h.Map.Epoch < cur.Epoch:
		s.count(func(st *ServerStats) { st.StaleEpochs++ })
		s.replyError(item.conn,
			fmt.Sprintf("stale handoff epoch %d (shard at epoch %d)", h.Map.Epoch, cur.Epoch))
		return
	case h.Map.Epoch > cur.Epoch:
		s.replyRetry(item.conn,
			fmt.Sprintf("handoff epoch %d ahead of shard epoch %d", h.Map.Epoch, cur.Epoch))
		return
	case h.Map != cur:
		s.replyError(item.conn,
			fmt.Sprintf("conflicting shard map at epoch %d", cur.Epoch))
		return
	}
	s.mu.Lock()
	already := s.adoptedEpochs[h.From] >= h.Map.Epoch
	s.mu.Unlock()
	if already {
		s.replyf(item.conn, `{"adopted":0,"epoch":%d}`+"\n", h.Map.Epoch)
		return
	}
	// Validate the whole handoff against the installed ring before
	// mutating anything: every client it carries must be one the ring
	// moves from the donor to this shard. A single stray (or unnamed —
	// those never move) client means the artifact belongs to a different
	// rebalance.
	s.shardMu.RLock()
	ring := s.ring
	s.shardMu.RUnlock()
	clients := make([]string, 0, len(h.Messages)+len(h.Acked))
	for _, sm := range h.Messages {
		clients = append(clients, sm.Client)
	}
	for _, a := range h.Acked {
		clients = append(clients, a.Client)
	}
	for _, client := range clients {
		if to, moved := ring.Moved(client, h.From); !moved || to != s.index {
			s.replyError(item.conn,
				fmt.Sprintf("handoff carries client %q this shard does not own", client))
			return
		}
	}
	adopted := 0
	for _, sm := range h.Messages {
		if sm.Seq > 0 && s.alreadyAcked(sm.Client, sm.Seq) {
			continue // an earlier (partially crashed) adopt already took it
		}
		if s.wal != nil {
			raw, err := json.Marshal(sm) // a SourcedMessage is a protocol line: replay parses it back
			if err == nil {
				_, err = s.wal.Append(raw)
			}
			if err != nil {
				s.count(func(st *ServerStats) { st.WALErrors++ })
				s.log.Warn("adopt WAL append failed", "err", err.Error())
				s.replyRetry(item.conn, err.Error())
				return
			}
		}
		if err := s.land(sm); err != nil {
			s.log.Warn("adopt: message rejected", "client", sm.Client, "seq", sm.Seq, "err", err.Error())
		}
		adopted++
	}
	s.mu.Lock()
	for _, a := range h.Acked {
		if a.Seq > 0 {
			s.markAcked(a.Client, a.Seq)
		}
	}
	s.adoptedEpochs[h.From] = h.Map.Epoch
	s.stats.Adopted += int64(adopted)
	s.mu.Unlock()
	s.log.Info("handoff adopted", "from", h.From, "epoch", h.Map.Epoch,
		"messages", adopted, "clients", len(h.Acked))
	if s.wal != nil {
		// Make the adoption (including bare ack baselines, which the WAL
		// does not carry) durable before acknowledging it; on failure the
		// router retries and the dedup above keeps it exactly-once.
		if err := s.snapshotNow(); err != nil {
			s.log.Warn("post-adopt snapshot failed", "err", err.Error())
			s.replyRetry(item.conn, err.Error())
			return
		}
	}
	s.replyf(item.conn, `{"adopted":%d,"epoch":%d}`+"\n", adopted, h.Map.Epoch)
}
