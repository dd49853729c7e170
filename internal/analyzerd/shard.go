package analyzerd

import (
	"fmt"
	"net"

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

// disownedBy reports whether the shard map assigns client to a different
// shard, and which one (wire.HashRing.Moved states the rule).
func (s *Server) disownedBy(client string) (owner int, moved bool) {
	return s.ring.Moved(client, s.index)
}

// replyMoved NACKs a submission for a client another shard owns. The
// reply is retryable and announces the owner index plus the shard map it
// was derived from. The router shares that map, so only a misassembled
// fleet produces one, and it reaches the client as ErrRedirected: the
// misconfiguration is loud, and the message stays pending, not lost.
func (s *Server) replyMoved(conn net.Conn, seq int64, client string, owner int) {
	s.reply(conn, replyLine(wire.ReplyLine{
		Nak: seq, Client: client, Moved: true, Owner: &owner, Map: &s.shardMap,
		Error: fmt.Sprintf("client %q belongs to shard %d", client, owner), Retry: true,
	}))
}

// replyDump answers the "dump" verb with this shard's full sourced
// message state as one wire.ShardState JSON line. Only a fleet member
// answers: a lone daemon has no router whose say-so could justify
// exporting its whole state.
func (s *Server) replyDump(conn net.Conn) {
	if !s.fleetMember {
		s.replyError(conn, "not a fleet shard")
		return
	}
	b := wire.AppendShardState(s.bodyBuf(), s.ShardState())
	s.bodySize.Store(int64(len(b)))
	s.reply(conn, append(b, '\n'))
}

// bodyBuf returns an empty buffer for a snapshot or a dump, an eighth
// larger than bodySize expects.
func (s *Server) bodyBuf() []byte { return make([]byte, 0, s.bodySize.Load()*9/8+512) }

// ShardState returns the shard's accepted messages (ingest order) and
// per-client ack highwaters, with its position in the fleet.
func (s *Server) ShardState() *wire.ShardState {
	s.mu.Lock()
	defer s.mu.Unlock()
	state := &wire.ShardState{Format: wire.ShardStateFormat, Shard: s.index, Map: s.shardMap}
	state.Messages, state.Acked = s.bodyLocked()
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
