package analyzerd

import (
	"math"
	"time"
)

// TokenBucket is the one rate limiter of the service tier: the daemon
// keeps one per client, the fleet router one per tenant. It holds up to
// burst tokens, refills at rate tokens per second of elapsed wall clock,
// and a submission costs one. The zero value is an empty bucket.
type TokenBucket struct {
	tokens   float64
	refilled time.Time // last refill instant; zero until the first Take
}

// FullBucket returns a bucket holding burst tokens.
func FullBucket(burst int) TokenBucket { return TokenBucket{tokens: float64(burst)} }

// DefaultBurst is the bucket depth when none is configured: the rate
// rounded up, and at least one message.
func DefaultBurst(rate float64) int { return max(1, int(math.Ceil(rate))) }

// Take refills the bucket for the time since the last call and spends one
// token if there is one; false means the caller is over its rate.
func (b *TokenBucket) Take(now time.Time, rate float64, burst int) bool {
	if !b.refilled.IsZero() {
		if dt := now.Sub(b.refilled).Seconds(); dt > 0 {
			b.tokens += dt * rate
		}
	}
	b.refilled = now
	b.tokens = min(b.tokens, float64(burst))
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
