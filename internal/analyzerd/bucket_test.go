package analyzerd

import (
	"testing"
	"time"
)

// TestTokenBucketTake pins the refill arithmetic to a fixed clock.
func TestTokenBucketTake(t *testing.T) {
	t0 := time.Unix(1000, 0)
	b := FullBucket(2)
	if !b.Take(t0, 1, 2) || !b.Take(t0, 1, 2) {
		t.Fatal("burst of 2 should admit 2 back-to-back")
	}
	if b.Take(t0, 1, 2) {
		t.Fatal("third instant submission should be limited")
	}
	// Half a second refills half a token: still short of the whole
	// token a submission costs.
	if b.Take(t0.Add(500*time.Millisecond), 1, 2) {
		t.Fatal("half-refilled bucket should still limit")
	}
	if !b.Take(t0.Add(1500*time.Millisecond), 1, 2) {
		t.Fatal("full second of refill should admit")
	}
	// A long idle period caps at Burst, not unbounded credit.
	b2 := TokenBucket{refilled: t0}
	for i := 0; i < 2; i++ {
		if !b2.Take(t0.Add(time.Hour), 1, 2) {
			t.Fatalf("after idle, take %d should be admitted", i)
		}
	}
	if b2.Take(t0.Add(time.Hour), 1, 2) {
		t.Fatal("idle credit must cap at Burst")
	}
}

// TestDefaultBurst: one rounding rule for both tiers — the rate rounded
// up, never below one message.
func TestDefaultBurst(t *testing.T) {
	for rate, want := range map[float64]int{0: 1, 0.2: 1, 1: 1, 2: 2, 2.00001: 3, 49.5: 50} {
		if got := DefaultBurst(rate); got != want {
			t.Errorf("DefaultBurst(%v) = %d, want %d", rate, got, want)
		}
	}
}
