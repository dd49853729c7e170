package analyzerd

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"

	"vedrfolnir/internal/collective"
	"vedrfolnir/internal/topo"
	"vedrfolnir/internal/wire"
)

// adminLine sends one raw admin verb line and decodes the JSON reply —
// the exact exchange the fleet router drives during a rebalance.
func adminLine(t *testing.T, addr, line string) map[string]any {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "%s\n", line); err != nil {
		t.Fatalf("write %q: %v", line, err)
	}
	reply, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		t.Fatalf("read reply to %q: %v", line, err)
	}
	var m map[string]any
	if err := json.Unmarshal(reply, &m); err != nil {
		t.Fatalf("bad reply %q: %v", reply, err)
	}
	return m
}

func remapLine(t *testing.T, m wire.ShardMap) string {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf(`{"type":"remap","map":%s}`, b)
}

func adoptLine(t *testing.T, h *wire.Handoff) string {
	t.Helper()
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf(`{"type":"adopt","handoff":%s}`, b)
}

func wantErrContaining(t *testing.T, reply map[string]any, sub string) {
	t.Helper()
	e, _ := reply["error"].(string)
	if e == "" || !strings.Contains(e, sub) {
		t.Errorf("reply = %v, want error containing %q", reply, sub)
	}
}

// TestShardRemapEpochProtocol pins the shard-side epoch state machine:
// stale maps are rejected and counted, the installed map re-delivered is
// an idempotent success (how the router retries through a kill), a
// different map at the same epoch is a hard conflict, and a newer map
// installs live — dropping exactly the clients it assigns elsewhere.
func TestShardRemapEpochProtocol(t *testing.T) {
	m1 := wire.ShardMap{Shards: 1, Epoch: 1}
	srv := shardServe(t, m1, 0, "")
	defer srv.Close()

	// Everything is owned under a 1-shard map; find a client the grown
	// map reassigns and one it keeps.
	m2 := wire.ShardMap{Shards: 2, Epoch: 2}
	moved, kept := ownedAndDisowned(t, m2, 1) // moved -> shard 1, kept stays on 0
	for _, id := range []string{moved, kept} {
		rc, err := NewReliableClient(srv.Addr(), ClientConfig{ID: id, MaxAttempts: 2, Sleep: noSleep})
		if err != nil {
			t.Fatal(err)
		}
		if err := rc.SendCF(testFlow(3).Key()); err != nil {
			t.Fatal(err)
		}
		if err := rc.Flush(); err != nil {
			t.Fatalf("%s flush: %v", id, err)
		}
	}

	// Stale epoch: behind the shard's current map.
	wantErrContaining(t, adminLine(t, srv.Addr(), remapLine(t, wire.ShardMap{Shards: 1, Epoch: 0})), "stale")
	// Idempotent re-delivery of the installed map.
	reply := adminLine(t, srv.Addr(), remapLine(t, m1))
	if reply["remapped"] != true || reply["epoch"] != float64(1) {
		t.Errorf("idempotent remap reply = %v", reply)
	}
	// Same epoch, different map: a split-brain artifact, hard error.
	wantErrContaining(t, adminLine(t, srv.Addr(), remapLine(t, wire.ShardMap{Shards: 1, Replicas: 8, Epoch: 1})), "conflicting")
	if st := srv.Stats(); st.StaleEpochs != 1 || st.Remaps != 0 {
		t.Errorf("stats = %+v, want StaleEpochs=1 Remaps=0 before install", st)
	}

	// The real install: epoch 2 doubles the fleet, reassigning `moved`.
	reply = adminLine(t, srv.Addr(), remapLine(t, m2))
	if reply["remapped"] != true || reply["reassigned"] != float64(1) {
		t.Errorf("install reply = %v, want remapped with 1 reassigned", reply)
	}
	state := dumpState(t, srv.Addr())
	if state.Map != m2 {
		t.Errorf("dump map = %+v, want the installed %+v", state.Map, m2)
	}
	if len(state.Messages) != 1 || state.Messages[0].Client != kept {
		t.Errorf("post-remap messages = %+v, want only %s's", state.Messages, kept)
	}
	if st := srv.Stats(); st.Remaps != 1 {
		t.Errorf("Remaps = %d, want 1", st.Remaps)
	}

	// And now the old map is the stale one.
	wantErrContaining(t, adminLine(t, srv.Addr(), remapLine(t, m1)), "stale")
}

// TestShardRemapRefusesRemoval: a shrink stops removed shards, it never
// remaps them — a shard must not install a map that disowns everything.
func TestShardRemapRefusesRemoval(t *testing.T) {
	m := wire.ShardMap{Shards: 2}
	srv := shardServe(t, m, 1, "")
	defer srv.Close()
	wantErrContaining(t, adminLine(t, srv.Addr(), remapLine(t, wire.ShardMap{Shards: 1, Epoch: 1})), "removes shard")
}

// TestShardAdoptProtocol drives a real grow handoff: donor state is
// dumped and sliced exactly as the router does it, then delivered to
// the adoptee — after the epoch fences are probed from both sides.
func TestShardAdoptProtocol(t *testing.T) {
	m1 := wire.ShardMap{Shards: 1}
	m2 := wire.ShardMap{Shards: 2, Epoch: 1}
	donor := shardServe(t, m1, 0, "")
	defer donor.Close()
	adoptee := shardServe(t, m2, 1, "") // grow target, born on the new map
	defer adoptee.Close()

	mover, stayer := ownedAndDisowned(t, m2, 1)
	for i, id := range []string{mover, stayer} {
		rc, err := NewReliableClient(donor.Addr(), ClientConfig{ID: id, MaxAttempts: 2, Sleep: noSleep})
		if err != nil {
			t.Fatal(err)
		}
		if err := rc.SendCF(testFlow(i).Key()); err != nil {
			t.Fatal(err)
		}
		if err := rc.SendStep(collective.StepRecord{Host: topo.NodeID(i + 1), Step: i, Flow: testFlow(i).Key(), Bytes: 100}); err != nil {
			t.Fatal(err)
		}
		if err := rc.Flush(); err != nil {
			t.Fatalf("%s flush: %v", id, err)
		}
	}
	handoffs, err := wire.BuildHandoffs(dumpState(t, donor.Addr()), m2)
	if err != nil {
		t.Fatalf("BuildHandoffs: %v", err)
	}
	if len(handoffs) != 1 || handoffs[0].To != 1 || len(handoffs[0].Messages) != 2 {
		t.Fatalf("handoffs = %+v, want one 2-message unit for shard 1", handoffs)
	}
	h := handoffs[0]

	// Epoch ahead of the adoptee: the router's remap is still in
	// flight somewhere — retryable, not fatal.
	ahead := *h
	ahead.Map.Epoch = 2
	reply := adminLine(t, adoptee.Addr(), adoptLine(t, &ahead))
	if reply["retry"] != true {
		t.Errorf("epoch-ahead adopt reply = %v, want retry:true", reply)
	}
	// Epoch behind: a different, finished rebalance. Hard error.
	stale := *h
	stale.Map = wire.ShardMap{Shards: 2}
	wantErrContaining(t, adminLine(t, adoptee.Addr(), adoptLine(t, &stale)), "stale")
	// Misdelivered unit.
	wrong := *h
	wrong.To = 5
	wantErrContaining(t, adminLine(t, adoptee.Addr(), adoptLine(t, &wrong)), "targets shard")
	// A handoff carrying a client the ring does not place here is a
	// corrupt artifact, refused before any mutation.
	alien := *h
	alien.Messages = append([]wire.SourcedMessage{}, h.Messages...)
	alien.Messages[0].Client = stayer
	wantErrContaining(t, adminLine(t, adoptee.Addr(), adoptLine(t, &alien)), "does not own")

	// The genuine delivery.
	reply = adminLine(t, adoptee.Addr(), adoptLine(t, h))
	if reply["adopted"] != float64(2) {
		t.Fatalf("adopt reply = %v, want adopted:2", reply)
	}
	// Retried delivery (the router re-sends through a kill): dedups to
	// zero instead of double-ingesting.
	reply = adminLine(t, adoptee.Addr(), adoptLine(t, h))
	if reply["adopted"] != float64(0) {
		t.Errorf("re-adopt reply = %v, want adopted:0", reply)
	}
	state := dumpState(t, adoptee.Addr())
	if len(state.Messages) != 2 {
		t.Fatalf("adoptee holds %d messages, want 2", len(state.Messages))
	}
	for _, sm := range state.Messages {
		if sm.Client != mover {
			t.Errorf("adoptee holds %s's message, want only %s's", sm.Client, mover)
		}
	}
	// The ack highwater moved with the data: a straggler resubmission
	// of an already-acked seq dedups at the new owner.
	found := false
	for _, ack := range state.Acked {
		if ack.Client == mover && ack.Seq == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("adoptee acks = %+v, want %s at seq 2", state.Acked, mover)
	}
	if st := adoptee.Stats(); st.Adopted != 2 || st.StaleEpochs != 1 {
		t.Errorf("adoptee stats = %+v, want Adopted=2 StaleEpochs=1", st)
	}
}

// TestAdminVerbsRefusedOutsideFleet: resize belongs to the router, and
// a standalone (unsharded) server has no business remapping.
func TestAdminVerbsRefusedOutsideFleet(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	wantErrContaining(t, adminLine(t, srv.Addr(), remapLine(t, wire.ShardMap{Shards: 1})), "not a fleet shard")

	m := wire.ShardMap{Shards: 2}
	shard := shardServe(t, m, 0, "")
	defer shard.Close()
	wantErrContaining(t, adminLine(t, shard.Addr(), `{"type":"resize","map":{"shards":3}}`), "router")
}
