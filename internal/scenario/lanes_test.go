package scenario

import "testing"

// TestEventsTakeLanes measures what the event queue's constant-delay lanes
// are for. On the benchmark configuration nearly every event a case
// schedules with After is a fixed delay after now — link propagation, ACK
// and cell serialisation — so at least 95 % of those pushes must skip the
// heap, in each benchmark kind. (Absolute times, such as DCQCN pacing, go
// to the heap by design and are 5–7 % of all pushes.) A new early one-off
// delay that squats on a lane, or a hot path moved to absolute times,
// shows here before it shows as wall time.
func TestEventsTakeLanes(t *testing.T) {
	cfg, opts := benchmarkConfig()
	for _, kind := range benchmarkKinds {
		cs, err := GenerateCase(kind, 1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ft, net := newNetwork(cs, cfg)
		if _, err := runOn(ft, net, cs, Vedrfolnir, cfg, opts); err != nil {
			t.Fatal(err)
		}
		ls := net.K.LaneStats()
		share := float64(ls.Laned) / float64(ls.After)
		t.Logf("%v: %d of %d After pushes took a lane (%.2f %%)", kind, ls.Laned, ls.After, 100*share)
		if share < 0.95 {
			t.Errorf("%v: %.2f %% of %d After pushes took a lane, want at least 95 %%", kind, 100*share, ls.After)
		}
	}
}
