package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"vedrfolnir/internal/analyzerd"
	"vedrfolnir/internal/collective"
	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/scenario"
	"vedrfolnir/internal/telemetry"
	"vedrfolnir/internal/wire"
)

// streamMsg is one message of the replayed stream, attributed to the host
// agent that submits it.
type streamMsg struct {
	host string
	typ  string
	cf   fabric.FlowKey
	rec  collective.StepRecord
	rep  *telemetry.Report
}

// send buffers the message on the host's client.
func (m streamMsg) send(rc *analyzerd.ReliableClient) error {
	switch m.typ {
	case wire.MsgCF:
		return rc.SendCF(m.cf)
	case wire.MsgStep:
		return rc.SendStep(m.rec)
	default:
		return rc.SendReport(m.rep)
	}
}

// sourced is the message as a shard should retain it.
func (m streamMsg) sourced(seq int64) wire.SourcedMessage {
	sm := wire.SourcedMessage{Client: m.host, Seq: seq, Type: m.typ}
	switch m.typ {
	case wire.MsgCF:
		dto := wire.FromFlow(m.cf)
		sm.CF = &dto
	case wire.MsgStep:
		dto := wire.FromStepRecord(m.rec)
		sm.Step = &dto
	default:
		dto := wire.FromReport(m.rep)
		sm.Report = &dto
	}
	return sm
}

// line is the message as the client puts it on the wire.
func (m streamMsg) line(seq int64) ([]byte, error) {
	sm := m.sourced(seq)
	b, err := json.Marshal(analyzerd.Message{
		Type: sm.Type, Step: sm.Step, Report: sm.Report, CF: sm.CF, Seq: seq, Client: m.host,
	})
	return append(b, '\n'), err
}

func hostName(id int32) string { return fmt.Sprintf("h%02d", id) }

// buildStream makes one pass of the ingest stream from the seed: the
// sorted collective flows and the step records of one Contention case,
// each sent by the host that produced it, then streamReports telemetry
// reports — the order vedrtest's fleet runner replays a case in. The
// reports are the ones nearest reportTargetBytes among those that
// the given number of Contention cases on consecutive seeds produce, dealt to the
// hosts in turn.
func buildStream(seed int64, cases int) ([]streamMsg, error) {
	cfg := benchConfig()
	opts := benchRunOptions(cfg)
	type pooled struct {
		rep  *telemetry.Report
		size int
		idx  int
	}
	var pool []pooled
	var msgs []streamMsg
	base := seed * 1_000_003
	for i := int64(0); i < int64(cases); i++ {
		cs, err := scenario.GenerateCase(scenario.Contention, base+i, cfg)
		if err != nil {
			return nil, err
		}
		res, err := scenario.Run(cs, scenario.Vedrfolnir, cfg, opts)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			cfs := make([]fabric.FlowKey, 0, len(res.CFs))
			for f := range res.CFs {
				cfs = append(cfs, f)
			}
			sort.Slice(cfs, func(a, b int) bool { return cfs[a].String() < cfs[b].String() })
			for _, f := range cfs {
				msgs = append(msgs, streamMsg{host: hostName(int32(f.Src)), typ: wire.MsgCF, cf: f})
			}
			for _, rec := range res.Records {
				msgs = append(msgs, streamMsg{host: hostName(int32(rec.Host)), typ: wire.MsgStep, rec: rec})
			}
		}
		for _, rep := range res.Reports {
			b, err := json.Marshal(wire.FromReport(rep))
			if err != nil {
				return nil, err
			}
			pool = append(pool, pooled{rep: rep, size: len(b), idx: len(pool)})
		}
	}
	if len(pool) < streamReports {
		return nil, fmt.Errorf("%d Contention cases gave only %d reports", cases, len(pool))
	}
	dist := func(p pooled) int {
		if p.size > reportTargetBytes {
			return p.size - reportTargetBytes
		}
		return reportTargetBytes - p.size
	}
	sort.Slice(pool, func(a, b int) bool {
		if da, db := dist(pool[a]), dist(pool[b]); da != db {
			return da < db
		}
		return pool[a].idx < pool[b].idx
	})
	chosen := pool[:streamReports]
	sort.Slice(chosen, func(a, b int) bool { return chosen[a].idx < chosen[b].idx })
	hosts := streamHosts(msgs)
	for i, p := range chosen {
		msgs = append(msgs, streamMsg{host: hosts[i%len(hosts)], typ: wire.MsgReport, rep: p.rep})
	}
	return msgs, nil
}

// streamHosts returns the distinct submitting hosts, sorted.
func streamHosts(msgs []streamMsg) []string {
	seen := map[string]bool{}
	var hosts []string
	for _, m := range msgs {
		if !seen[m.host] {
			seen[m.host] = true
			hosts = append(hosts, m.host)
		}
	}
	sort.Strings(hosts)
	return hosts
}

// streamFingerprint hashes the stream's wire lines.
func streamFingerprint(stream []streamMsg) (string, error) {
	h := sha256.New()
	for i, m := range stream {
		line, err := m.line(int64(i + 1))
		if err != nil {
			return "", err
		}
		_, _ = h.Write(line) // a hash never fails to take bytes
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// lane is one generator goroutine's share of the load: a disjoint set of
// host agents, their messages in stream order, and the mirror of what the
// fleet must retain for them.
type lane struct {
	hosts   []string
	msgs    []streamMsg
	clients map[string]*analyzerd.ReliableClient
	seqs    map[string]int64
	mirror  []wire.SourcedMessage
	ackMS   []float64 // traced or only-traced round trips (Phase A)
	plainMS []float64 // untraced round trips interleaved in a traced Phase A
	next    int
}

// newLanes splits the stream's hosts over min(nproc, 2) lanes and gives
// every host its ReliableClient, configured as vedrtest's fleet runner
// configures a host agent.
func newLanes(addr string, stream []streamMsg) ([]*lane, error) {
	hosts := streamHosts(stream)
	g := runtime.NumCPU()
	if g > 2 {
		g = 2
	}
	lanes := make([]*lane, g)
	owner := map[string]*lane{}
	for i := range lanes {
		lanes[i] = &lane{clients: map[string]*analyzerd.ReliableClient{}, seqs: map[string]int64{}}
	}
	for i, h := range hosts {
		l := lanes[i%g]
		rc, err := analyzerd.NewReliableClient(addr, analyzerd.ClientConfig{
			ID: h, MaxAttempts: 40, BackoffBase: 20 * time.Millisecond, BackoffMax: 500 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		l.hosts = append(l.hosts, h)
		l.clients[h] = rc
		owner[h] = l
	}
	for _, m := range stream {
		owner[m.host].msgs = append(owner[m.host].msgs, m)
	}
	return lanes, nil
}

// submit buffers the lane's next message and mirrors it.
func (l *lane) submit() (*analyzerd.ReliableClient, error) {
	m := l.msgs[l.next%len(l.msgs)]
	l.next++
	rc := l.clients[m.host]
	if err := m.send(rc); err != nil {
		return nil, err
	}
	l.seqs[m.host]++
	l.mirror = append(l.mirror, m.sourced(l.seqs[m.host]))
	return rc, nil
}

// roundTrips is Phase A: n single-message submit+Flush round trips. With a
// tracer every other trip is wrapped in spans, the rest run bare, so the
// two can be compared.
func (l *lane) roundTrips(n int, tr *tracer, opBase int) error {
	for i := 0; i < n; i++ {
		t := tr
		if i%2 == 1 {
			t = nil
		}
		op := opBase + i
		t0 := time.Now()
		root := t.begin(-1, op, "fleet", "round_trip")
		enc := t.begin(root, op, "wire", "encode")
		rc, err := l.submit()
		t.end(enc)
		if err != nil {
			return err
		}
		ack := t.begin(root, op, "fleet", "ack")
		err = rc.Flush()
		t.end(ack)
		t.end(root)
		if err != nil {
			return err
		}
		ms := msSince(t0)
		if tr != nil && t == nil {
			l.plainMS = append(l.plainMS, ms)
		} else {
			l.ackMS = append(l.ackMS, ms)
		}
	}
	return nil
}

// pipeline is Phase B: n messages, one pass of the lane's stream buffered
// per client and then flushed, repeated.
func (l *lane) pipeline(n int) error {
	for sent := 0; sent < n; {
		batch := len(l.msgs)
		if rest := n - sent; rest < batch {
			batch = rest
		}
		for i := 0; i < batch; i++ {
			if _, err := l.submit(); err != nil {
				return err
			}
		}
		for _, h := range l.hosts {
			if err := l.clients[h].Flush(); err != nil {
				return err
			}
		}
		sent += batch
	}
	return nil
}

// ackPhase is Phase A over all lanes: n round trips in total, once per
// set of lanes. It returns their latencies — with a tracer, the traced
// trips and the bare ones apart.
func ackPhase(lanes []*lane, n int, tr *tracer) (ackMS, plainMS []float64, err error) {
	per := n / len(lanes)
	if err := onLanes(lanes, func(i int, l *lane) error { return l.roundTrips(per, tr, i*per) }); err != nil {
		return nil, nil, err
	}
	for _, l := range lanes {
		ackMS = append(ackMS, l.ackMS...)
		plainMS = append(plainMS, l.plainMS...)
	}
	return ackMS, plainMS, nil
}

// pipelinePhase is Phase B (and C) over all lanes: n messages in total. It
// returns the messages per second of wall time.
func pipelinePhase(lanes []*lane, n int) (float64, error) {
	per := n / len(lanes)
	t0 := time.Now()
	if err := onLanes(lanes, func(_ int, l *lane) error { return l.pipeline(per) }); err != nil {
		return 0, err
	}
	return float64(per*len(lanes)) / time.Since(t0).Seconds(), nil
}

// awaitRestart polls until pid() names a live process other than old.
func awaitRestart(pid func() int, old int) error {
	for t0 := time.Now(); ; time.Sleep(time.Millisecond) {
		if p := pid(); p > 0 && p != old {
			return nil
		}
		if time.Since(t0) > 30*time.Second {
			return fmt.Errorf("shard did not come back within 30 s of SIGKILL")
		}
	}
}

// onLanes runs f on every lane at once and waits for all of them.
func onLanes(lanes []*lane, f func(i int, l *lane) error) error {
	errs := make([]error, len(lanes))
	var wg sync.WaitGroup
	for i, l := range lanes {
		wg.Add(1)
		go func(i int, l *lane) {
			defer wg.Done()
			errs[i] = f(i, l)
		}(i, l)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// warmUp opens every client's connection with one acked message of its
// own, then sends one pipelined pass of the stream.
//
// The single first message is deliberate. A client's first contact with a
// shard sets its ack baseline to whatever sequence number arrives first; if
// the router bounces the head of a pipelined first batch with a retryable
// NAK (shard link not up yet) and a later message gets through, the shard
// baselines on that one, its cumulative ack makes the client drop the
// bounced messages as delivered, and they are lost without an error (seen
// once in ~90 rounds against a one-shard fleet). One pending message cannot
// be leapfrogged; after it the shard's contiguity check protects the rest.
func warmUp(lanes []*lane) error {
	return onLanes(lanes, func(_ int, l *lane) error {
		for _, h := range l.hosts {
			if err := l.firstAck(h); err != nil {
				return err
			}
		}
		return l.pipeline(len(l.msgs))
	})
}

// closeLanes flushes and closes every client. A Flush only returns nil
// once nothing is pending, but a message the server refused for good is
// dropped without an error: those count as never acked. retries is how
// often the reliability machinery had to step in.
func closeLanes(lanes []*lane, acct *tally) (retries int, err error) {
	rejected := 0
	for _, l := range lanes {
		for _, h := range l.hosts {
			rc := l.clients[h]
			if cerr := rc.Close(); cerr != nil && err == nil {
				err = cerr
			}
			rejected += rc.Stats.Rejected
			retries += rc.Stats.Reconnects + rc.Stats.Resubmitted + rc.Stats.Backpressure + rc.Stats.Redirected
		}
	}
	acct.check(rejected == 0, "%d messages were refused by the server and never acked", rejected)
	return retries, err
}

// localDiagnosis merges what the lanes mirrored the way a fleet drain
// merges shard dumps, analyzes it, and renders it as the daemon's -json
// output.
func localDiagnosis(lanes []*lane) (wire.MergeStats, []byte, error) {
	var msgs []wire.SourcedMessage
	for _, l := range lanes {
		msgs = append(msgs, l.mirror...)
	}
	bundle, stats := wire.MergeShardStates([]*wire.ShardState{{Format: wire.ShardStateFormat, Messages: msgs}})
	out, err := renderDiagnosis(bundle)
	return stats, out, err
}

// renderDiagnosis analyzes a merged bundle and encodes it as vedranalyzerd
// -json does.
func renderDiagnosis(bundle *wire.Bundle) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(wire.FromDiagnosis(bundle.Analyze())); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ownedBy returns a lane and host that shard owns under a 2-shard map.
func ownedBy(lanes []*lane, shards, shard int) (*lane, string, error) {
	ring, err := wire.NewHashRing(wire.ShardMap{Shards: shards})
	if err != nil {
		return nil, "", err
	}
	for _, l := range lanes {
		for _, h := range l.hosts {
			if ring.Owner(h) == shard {
				return l, h, nil
			}
		}
	}
	return nil, "", fmt.Errorf("no host hashes to shard %d", shard)
}

// firstAck sends one message from the given host and waits for its ack.
func (l *lane) firstAck(host string) error {
	for {
		m := l.msgs[l.next%len(l.msgs)]
		if m.host != host {
			l.next++
			continue
		}
		rc, err := l.submit()
		if err != nil {
			return err
		}
		return rc.Flush()
	}
}
