package analyzerd

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"vedrfolnir/internal/collective"
	"vedrfolnir/internal/obs"
	"vedrfolnir/internal/wire"
)

// syncBuffer guards the log sink: server goroutines write concurrently.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestPublishStatsAndLogging covers the daemon's observability surface:
// ServerStats and ingest totals exposed live through a registry, and the
// structured connection log.
func TestPublishStatsAndLogging(t *testing.T) {
	var logBuf syncBuffer
	cfg := DefaultServerConfig()
	cfg.Log = obs.NewLogger(&logBuf, slog.LevelDebug, nil)
	srv, err := ServeWith("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reg := obs.NewRegistry()
	srv.PublishStats(reg)

	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	step := wire.FromStepRecord(collective.StepRecord{Host: 1, Step: 0, Bytes: 4096, Start: 0, End: 1000})
	line, err := json.Marshal(Message{Type: TypeStep, Step: &step, Seq: 1, Client: "h1"})
	if err != nil {
		t.Fatal(err)
	}
	sendLine(t, c, string(line))
	// A message with a bogus type is counted (and logged) as malformed,
	// exercising the abuse counters.
	sendLine(t, c, `{"type":"bogus","seq":2,"client":"h1"}`)
	waitIngested(t, srv, 1, 0, 0)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// The gauges re-read the live server on every snapshot.
	//lint:ignore nosystime polling a real TCP daemon for connection teardown
	deadline := time.Now().Add(5 * time.Second)
	var flat map[string]int64
	for {
		flat = reg.Flatten()
		if flat["vedr_analyzerd_records"] == 1 && flat["vedr_analyzerd_malformed_total"] == 1 &&
			flat["vedr_analyzerd_connections"] == 0 {
			break
		}
		//lint:ignore nosystime deadline for the real network service
		if time.Now().After(deadline) {
			t.Fatalf("registry never converged: %v (stats %+v)", flat, srv.Stats())
		}
		//lint:ignore nosystime backoff between polls of the real TCP daemon
		time.Sleep(time.Millisecond)
	}

	// Prometheus rendering includes the daemon metrics.
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "vedr_analyzerd_records 1") {
		t.Errorf("/metrics rendering missing ingest gauge:\n%s", prom.String())
	}

	logs := logBuf.String()
	for _, want := range []string{"client connected", "client disconnected", "malformed line"} {
		if !strings.Contains(logs, want) {
			t.Errorf("log missing %q:\n%s", want, logs)
		}
	}
	if strings.Contains(logs, "time=") {
		t.Errorf("wall-clock timestamp leaked into daemon log:\n%s", logs)
	}
}
