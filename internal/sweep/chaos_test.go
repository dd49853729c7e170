package sweep

import (
	"bytes"
	"encoding/json"
	"testing"

	"vedrfolnir/internal/scenario"
	"vedrfolnir/internal/wire"
)

func TestJobKeyChaosLoss(t *testing.T) {
	j := Job{Kind: scenario.Contention, Seed: 4, System: scenario.Vedrfolnir,
		Params: Params{ChaosLoss: 0.01}}
	if got, want := j.Key(), "flow-contention/vedrfolnir/s4/loss=0.01"; got != want {
		t.Fatalf("Key() = %q, want %q", got, want)
	}
	// Zero loss keys without a suffix, so pre-chaos journals keep matching.
	plain := Job{Kind: scenario.Contention, Seed: 4, System: scenario.Vedrfolnir}
	if got, want := plain.Key(), "flow-contention/vedrfolnir/s4"; got != want {
		t.Fatalf("Key() = %q, want %q", got, want)
	}
}

// TestChaosResultJournalRoundTrip: the chaos-grid fields survive the
// journal losslessly, like every other Result field.
func TestChaosResultJournalRoundTrip(t *testing.T) {
	in := Result{
		Job: Job{Kind: scenario.Incast, Seed: 3, System: scenario.Vedrfolnir,
			Params: Params{ChaosLoss: 0.05}},
		Outcome:        scenario.Outcome(0),
		Completed:      true,
		TelemetryBytes: 4242,
		Confidence:     0.875,
	}
	in.Key = in.Job.Key()
	b, err := json.Marshal(wireRecord(in))
	if err != nil {
		t.Fatal(err)
	}
	var rec wire.SweepRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatal(err)
	}
	out := resultFromWire(rec)
	if out.Job.Params.ChaosLoss != in.Job.Params.ChaosLoss {
		t.Fatalf("ChaosLoss lost: %v", out.Job.Params.ChaosLoss)
	}
	if out.Confidence != in.Confidence {
		t.Fatalf("Confidence lost: %v", out.Confidence)
	}
	b2, err := json.Marshal(wireRecord(out))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("journal round trip not lossless:\n%s\nvs\n%s", b, b2)
	}
}
