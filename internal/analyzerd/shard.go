package analyzerd

import (
	"encoding/json"
	"fmt"
	"net"
	"strconv"

	"vedrfolnir/internal/wire"
)

// ShardConfig places a Server inside a diagnosis fleet: Map is the
// fleet-wide consistent-hash shard map (identical on the router and
// every shard) and Index this daemon's slot in it. See
// ServerConfig.Shard for the behavioral contract.
type ShardConfig struct {
	Map   wire.ShardMap
	Index int
}

func (c *ShardConfig) ring() (*wire.HashRing, error) {
	ring, err := wire.NewHashRing(c.Map)
	if err != nil {
		return nil, fmt.Errorf("analyzerd: shard config: %w", err)
	}
	if c.Index < 0 || c.Index >= c.Map.Shards {
		return nil, fmt.Errorf("analyzerd: shard index %d outside map of %d shards", c.Index, c.Map.Shards)
	}
	return ring, nil
}

// disownedBy reports whether client is a named client the shard map
// assigns to a different shard, and which one. Always false outside
// shard mode and for unnamed (peer-keyed) submissions. The ring is
// read under shardMu: a live remap may swap it at any time.
func (s *Server) disownedBy(client string) (owner int, moved bool) {
	if s.cfg.Shard == nil || client == "" {
		return 0, false
	}
	s.shardMu.RLock()
	ring := s.ring
	s.shardMu.RUnlock()
	owner = ring.Owner(client)
	return owner, owner != s.cfg.Shard.Index
}

// curShardMap returns the map the shard is currently running under.
func (s *Server) curShardMap() wire.ShardMap {
	s.shardMu.RLock()
	defer s.shardMu.RUnlock()
	return s.shardMap
}

// replyMoved NACKs a submission for a client another shard owns. The
// reply is retryable and announces the owner index plus the shard map
// it was derived from, so a ReliableClient (or the router on its
// behalf) can rehash, redial the owning shard, and resubmit — the
// message is not lost.
func (s *Server) replyMoved(conn net.Conn, seq int64, client string, owner int) {
	reason := fmt.Sprintf("client %q belongs to shard %d", client, owner)
	m, err := json.Marshal(s.curShardMap())
	if err != nil {
		m = []byte("{}") // a flat int struct cannot fail to marshal
	}
	b := appendNakHead(make([]byte, 0, 192), seq, client)
	b = append(b, `"moved":true,"owner":`...)
	b = strconv.AppendInt(b, int64(owner), 10)
	b = append(b, `,"map":`...)
	b = append(b, m...)
	b = append(b, `,"error":`...)
	b = appendJSONString(b, reason)
	s.reply(conn, append(b, `,"retry":true}`+"\n"...))
}

// replyDump answers the "dump" verb with this shard's full sourced
// message state as one wire.ShardState JSON line. Outside shard mode
// the verb is an error — a standalone daemon does not retain message
// provenance.
func (s *Server) replyDump(conn net.Conn) {
	if s.cfg.Shard == nil {
		s.replyf(conn, `{"error":"not a fleet shard"}`+"\n")
		return
	}
	state := s.ShardState()
	b, err := json.Marshal(state)
	if err != nil {
		s.replyError(conn, err.Error())
		return
	}
	s.reply(conn, append(b, '\n'))
}

// ShardState returns the shard's accepted messages (ingest order) and
// per-client ack highwaters, with its position in the fleet under the
// *current* (possibly remapped) shard map. Only meaningful in shard
// mode; a standalone server returns an empty state.
func (s *Server) ShardState() *wire.ShardState {
	s.mu.Lock()
	defer s.mu.Unlock()
	state := &wire.ShardState{Format: wire.ShardStateFormat}
	if s.cfg.Shard != nil {
		state.Shard = s.cfg.Shard.Index
		state.Map = s.curShardMap()
		state.Acked = s.ackedLocked()
	}
	state.Messages = append(state.Messages, s.sourced...)
	return state
}

// sourcedFromMessage strips a protocol message to its durable identity
// + payload form.
func sourcedFromMessage(msg *Message) wire.SourcedMessage {
	return wire.SourcedMessage{
		Client: msg.Client,
		Seq:    msg.Seq,
		Type:   msg.Type,
		Step:   msg.Step,
		Report: msg.Report,
		CF:     msg.CF,
	}
}

// messageFromSourced is the inverse of sourcedFromMessage.
func messageFromSourced(sm wire.SourcedMessage) *Message {
	return &Message{
		Type:   sm.Type,
		Step:   sm.Step,
		Report: sm.Report,
		CF:     sm.CF,
		Seq:    sm.Seq,
		Client: sm.Client,
	}
}

// Abort is the in-process stand-in for SIGKILL, for crash tests and the
// in-process fleet harness: connections die, the listener closes,
// whatever the fsync policy already made durable stays on disk, and no
// drain snapshot or final sync is written. The WAL file handle is
// abandoned (closed without flushing), exactly what a killed process
// leaves behind.
func (s *Server) Abort() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	s.closed = true
	s.draining = true
	for conn := range s.conns {
		_ = conn.Close() // severing peers, as a kill would
	}
	s.mu.Unlock()
	_ = s.ln.Close() // severing the listener, as a kill would
	s.wg.Wait()
	close(s.queue)
	<-s.applierDone
	if s.wal != nil {
		s.wal.abandon()
	}
}
