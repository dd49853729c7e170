package perf

// SweepRow is one worker-scaling datapoint in BENCH_sweep.json. The first
// nine fields are the long-standing schema the repo's bench trajectory is
// recorded in; the latency percentiles and the environment annotation were
// added with the perf-observability layer (absent fields render as the
// old schema, so historical rows still parse).
type SweepRow struct {
	Bench       string  `json:"bench"`
	Workers     int     `json:"workers"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	Jobs        int     `json:"jobs"`
	Cases       int     `json:"cases"`
	CasesPerSec float64 `json:"cases_per_sec"`
	NsPerCase   int64   `json:"ns_per_case"`
	// Allocation footprint per simulated case (runtime.MemStats deltas
	// across the timed loop) — the quantity the hotalloc analyzer exists
	// to keep flat, and the strictly-gated number in perf/baseline.json.
	AllocsPerCase int64 `json:"allocs_per_case"`
	BytesPerCase  int64 `json:"bytes_per_case"`

	// Per-case wall-latency percentiles in milliseconds, estimated from
	// the perf_case_ns histogram buckets (obs.Sample.Quantile).
	P50CaseMs float64 `json:"p50_case_ms,omitempty"`
	P95CaseMs float64 `json:"p95_case_ms,omitempty"`
	P99CaseMs float64 `json:"p99_case_ms,omitempty"`

	// EnvironmentLimited marks a row whose pool could not actually run in
	// parallel (gomaxprocs or the machine's core count below the worker
	// count). Such a row measures scheduling overhead, not scaling, and
	// must say so instead of silently publishing a 1-P datapoint.
	EnvironmentLimited bool `json:"environment_limited,omitempty"`
}

// Limited reports whether a row recorded at the given GOMAXPROCS and CPU
// count must carry the EnvironmentLimited annotation.
func Limited(workers, gomaxprocs, numCPU int) bool {
	return gomaxprocs < workers || numCPU < workers
}

// IngestRow is one fleet ingest datapoint in BENCH_analyzerd.json: msgs/s
// and ack-latency percentiles at one shard count.
type IngestRow struct {
	Shards  int `json:"shards"`
	Clients int `json:"clients"`
	// LatencyMsgs messages were sent one-at-a-time (one Flush == one
	// acked round trip) to measure ack latency; ThroughputMsgs were sent
	// in client-sized batches to measure sustained msgs/s.
	LatencyMsgs    int     `json:"latency_msgs"`
	ThroughputMsgs int     `json:"throughput_msgs"`
	MsgsPerSec     float64 `json:"msgs_per_sec"`
	AckP50Us       float64 `json:"ack_p50_us"`
	AckP95Us       float64 `json:"ack_p95_us"`
	AckP99Us       float64 `json:"ack_p99_us"`
	// The router's own view of the run, read off its /metrics registry:
	// forward→reply latency on the shard links (all shards, both phases),
	// client lines per shard write, and what was still past the fence
	// when the run ended (0, so normally absent).
	LinkReplyP50Us float64 `json:"link_reply_p50_us,omitempty"`
	LinkReplyP95Us float64 `json:"link_reply_p95_us,omitempty"`
	BatchLinesMean float64 `json:"batch_lines_mean,omitempty"`
	InflightAtEnd  int64   `json:"inflight_at_end,omitempty"`
}

// DiagnoseRow is the analyzer diagnose-latency datapoint in
// BENCH_analyzerd.json: repeated full-pipeline Analyze calls over one
// collected case.
type DiagnoseRow struct {
	Records   int     `json:"records"`
	Reports   int     `json:"reports"`
	Iters     int     `json:"iters"`
	NsPerDiag int64   `json:"ns_per_diag"`
	P50Ms     float64 `json:"p50_ms"`
	P95Ms     float64 `json:"p95_ms"`
	P99Ms     float64 `json:"p99_ms"`
	// Allocation footprint per Analyze call.
	AllocsPerDiag int64 `json:"allocs_per_diag"`
	BytesPerDiag  int64 `json:"bytes_per_diag"`
}

// StageRow summarizes one hot-path stage histogram for vedrperf's
// stderr report: where the nanoseconds went.
type StageRow struct {
	Stage   string  `json:"stage"`
	Count   int64   `json:"count"`
	TotalMs float64 `json:"total_ms"`
	P50Us   float64 `json:"p50_us"`
	P95Us   float64 `json:"p95_us"`
	P99Us   float64 `json:"p99_us"`
}

// AnalyzerdBench is the whole BENCH_analyzerd.json document.
type AnalyzerdBench struct {
	Ingest []IngestRow `json:"ingest,omitempty"`
	// IngestBefore holds the same rows measured on the parent commit in
	// the same session (`vedrperf analyzerd -before parent.json`), so an
	// optimisation's before/after pair lives in one file.
	IngestBefore []IngestRow  `json:"ingest_before,omitempty"`
	Diagnose     *DiagnoseRow `json:"diagnose,omitempty"`
}
