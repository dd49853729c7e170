package perf

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"vedrfolnir/internal/analyzerd"
	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/fleet"
	"vedrfolnir/internal/obs"
	"vedrfolnir/internal/scenario"
)

// IngestConfig parameterizes the fleet ingest-throughput workload.
type IngestConfig struct {
	// BinPath is the vedranalyzerd binary the shard children run.
	// Required.
	BinPath string
	// Shards lists the fleet widths to measure (default 1, 2, 4).
	Shards []int
	// Seed picks the case whose record/report/CF stream is replayed
	// (default 0).
	Seed int64
	// LatencyMsgs is the number of one-at-a-time acked sends per width
	// (default 200); ThroughputMsgs the batched-send goal (default: four
	// times the stream, at least 1000).
	LatencyMsgs    int
	ThroughputMsgs int
	// Registry, when set, receives the per-width ack-latency histograms.
	Registry *obs.Registry
	// Progress, when set, receives one line per finished width.
	Progress io.Writer
}

// ingestMsg is one replayable message attributed to its producing host.
type ingestMsg struct {
	host string
	send func(*analyzerd.ReliableClient) error
}

// ingestStream fixes the replay order the same way the fleet conformance
// runner does: sorted collective flows, then step records, then telemetry
// reports, each sent by the host that produced it.
func ingestStream(res scenario.Result) []ingestMsg {
	var msgs []ingestMsg
	host := func(id int32) string { return fmt.Sprintf("h%02d", id) }
	cfs := make([]fabric.FlowKey, 0, len(res.CFs))
	for f := range res.CFs {
		cfs = append(cfs, f)
	}
	sort.Slice(cfs, func(i, j int) bool { return cfs[i].String() < cfs[j].String() })
	for _, f := range cfs {
		f := f
		msgs = append(msgs, ingestMsg{host: host(int32(f.Src)),
			send: func(rc *analyzerd.ReliableClient) error { return rc.SendCF(f) }})
	}
	for _, rec := range res.Records {
		rec := rec
		msgs = append(msgs, ingestMsg{host: host(int32(rec.Host)),
			send: func(rc *analyzerd.ReliableClient) error { return rc.SendStep(rec) }})
	}
	for _, rep := range res.Reports {
		rep := rep
		msgs = append(msgs, ingestMsg{host: host(int32(rep.TriggeredBy.Src)),
			send: func(rc *analyzerd.ReliableClient) error { return rc.SendReport(rep) }})
	}
	return msgs
}

// RunIngest measures fleet ingest at each shard count: a real
// `vedranalyzerd` cluster (router + supervised shard processes) receives
// a replayed case stream through per-host ReliableClients. Phase one
// sends LatencyMsgs messages one Flush at a time — each Flush is a full
// seq/ack round trip, the ack-latency sample. Phase two streams
// ThroughputMsgs messages with per-host batching and measures sustained
// msgs/s.
func RunIngest(cfg scenario.Config, opts scenario.RunOptions, ic IngestConfig) ([]IngestRow, error) {
	if ic.BinPath == "" {
		return nil, fmt.Errorf("perf: ingest needs the vedranalyzerd binary path")
	}
	widths := append([]int(nil), ic.Shards...)
	if len(widths) == 0 {
		widths = []int{1, 2, 4}
	}
	latN := ic.LatencyMsgs
	if latN <= 0 {
		latN = 200
	}

	cs, err := scenario.GenerateCase(scenario.Contention, ic.Seed, cfg)
	if err != nil {
		return nil, fmt.Errorf("perf: %w", err)
	}
	res, err := scenario.Run(cs, scenario.Vedrfolnir, cfg, opts)
	if err != nil {
		return nil, fmt.Errorf("perf: %w", err)
	}
	stream := ingestStream(res)
	if len(stream) == 0 {
		return nil, fmt.Errorf("perf: case produced an empty stream")
	}
	thrN := ic.ThroughputMsgs
	if thrN <= 0 {
		thrN = 4 * len(stream)
		if thrN < 1000 {
			thrN = 1000
		}
	}

	now := NanoNow()
	var rows []IngestRow
	for _, shards := range widths {
		row, err := runIngestWidth(shards, stream, latN, thrN, ic, now)
		if err != nil {
			return nil, err
		}
		rows = append(rows, *row)
		if ic.Progress != nil {
			_, _ = fmt.Fprintf(ic.Progress,
				"shards=%d: %.0f msgs/s, ack p50 %.0f us; router: link reply p50 %.0f us p95 %.0f us, %.1f lines/shard write, inflight at end %d\n",
				shards, row.MsgsPerSec, row.AckP50Us,
				row.LinkReplyP50Us, row.LinkReplyP95Us, row.BatchLinesMean, row.InflightAtEnd)
		}
	}
	return rows, nil
}

func runIngestWidth(shards int, stream []ingestMsg, latN, thrN int, ic IngestConfig, now func() int64) (*IngestRow, error) {
	dir, err := os.MkdirTemp("", "vedrperf-ingest")
	if err != nil {
		return nil, fmt.Errorf("perf: %w", err)
	}
	defer func() { _ = os.RemoveAll(dir) }()

	routerReg := obs.NewRegistry() // the router's /metrics, read back below
	fl, err := fleet.Start(fleet.Config{
		BinPath:   ic.BinPath,
		Shards:    shards,
		Dir:       dir,
		Fsync:     "off", // measure the protocol path, not the disk
		HoldShard: -1,
		Metrics:   routerReg,
	})
	if err != nil {
		return nil, fmt.Errorf("perf: fleet width %d: %w", shards, err)
	}
	defer fl.Close()

	clients := map[string]*analyzerd.ReliableClient{}
	client := func(host string) (*analyzerd.ReliableClient, error) {
		if rc, ok := clients[host]; ok {
			return rc, nil
		}
		rc, err := analyzerd.NewReliableClient(fl.Addr(), analyzerd.ClientConfig{
			ID:          host,
			MaxAttempts: 40,
			BackoffBase: 20 * time.Millisecond,
			BackoffMax:  500 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		clients[host] = rc
		return rc, nil
	}
	defer func() {
		for _, rc := range clients {
			_ = rc.Close()
		}
	}()

	ackHist := ic.Registry.Histogram(fmt.Sprintf("perf_ack_ns_s%d", shards),
		"ack round-trip wall time (ns)", obs.WallBuckets())
	ackTimer := obs.NewTimer(ackHist, now)

	// Phase one: one acked round trip per message.
	sent := 0
	for sent < latN {
		m := stream[sent%len(stream)]
		rc, err := client(m.host)
		if err != nil {
			return nil, fmt.Errorf("perf: connect %s: %w", m.host, err)
		}
		if err := m.send(rc); err != nil {
			return nil, fmt.Errorf("perf: send: %w", err)
		}
		t0 := ackTimer.Begin()
		if err := rc.Flush(); err != nil {
			return nil, fmt.Errorf("perf: ack: %w", err)
		}
		ackTimer.End(t0)
		sent++
	}

	// Phase two: stream with per-host batching — enqueue a full pass of
	// the stream, then flush every client once, repeated to the goal.
	done := 0
	sw := NanoNow()
	for done < thrN {
		n := len(stream)
		if rest := thrN - done; rest < n {
			n = rest
		}
		for _, m := range stream[:n] {
			rc, err := client(m.host)
			if err != nil {
				return nil, fmt.Errorf("perf: connect %s: %w", m.host, err)
			}
			if err := m.send(rc); err != nil {
				return nil, fmt.Errorf("perf: send: %w", err)
			}
		}
		hosts := make([]string, 0, len(clients))
		for h := range clients {
			hosts = append(hosts, h)
		}
		sort.Strings(hosts)
		for _, h := range hosts {
			if err := clients[h].Flush(); err != nil {
				return nil, fmt.Errorf("perf: flush %s: %w", h, err)
			}
		}
		done += n
	}
	elapsed := sw()

	row := &IngestRow{
		Shards:         shards,
		Clients:        len(clients),
		LatencyMsgs:    latN,
		ThroughputMsgs: thrN,
		MsgsPerSec:     float64(thrN) / (float64(elapsed) / 1e9),
	}
	if s, ok := findSample(ic.Registry, fmt.Sprintf("perf_ack_ns_s%d", shards)); ok && s.Count > 0 {
		row.AckP50Us = s.Quantile(0.50) / 1e3
		row.AckP95Us = s.Quantile(0.95) / 1e3
		row.AckP99Us = s.Quantile(0.99) / 1e3
	}
	var reply obs.Sample
	for _, sm := range routerReg.Snapshot() {
		switch {
		case strings.HasPrefix(sm.Name, "vedr_router_shard_reply_ns_"):
			reply = mergeHistograms(reply, sm)
		case sm.Name == "vedr_router_batch_lines" && sm.Count > 0:
			row.BatchLinesMean = float64(sm.Sum) / float64(sm.Count)
		case sm.Name == "vedr_router_inflight":
			row.InflightAtEnd = sm.Value
		}
	}
	if reply.Count > 0 {
		row.LinkReplyP50Us = reply.Quantile(0.50) / 1e3
		row.LinkReplyP95Us = reply.Quantile(0.95) / 1e3
	}
	return row, nil
}

// mergeHistograms adds b's observations to a's (same bounds: both come
// from obs.WallBuckets).
func mergeHistograms(a, b obs.Sample) obs.Sample {
	if a.Count == 0 {
		b.Buckets = append([]obs.Bucket(nil), b.Buckets...)
		return b
	}
	for i := range a.Buckets {
		a.Buckets[i].Count += b.Buckets[i].Count
	}
	a.Sum += b.Sum
	a.Count += b.Count
	return a
}
