// Package a exercises the seededrand analyzer: global math/rand draws are
// flagged, explicitly seeded *rand.Rand usage is allowed.
package a

import "math/rand"

// Seeded generators and their methods are the sanctioned pattern.
func seeded(seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, 0, 4)
	out = append(out, rng.Intn(10))
	out = append(out, int(rng.Int63n(100)))
	out = append(out, rng.Perm(5)...)
	return out
}

// Passing the generator around keeps everything reproducible.
func threaded(rng *rand.Rand) float64 { return rng.Float64() }

func globalDraws() {
	_ = rand.Intn(10)                  // want `global rand\.Intn draws from the shared process-wide source`
	_ = rand.Float64()                 // want `global rand\.Float64 draws from the shared process-wide source`
	_ = rand.Int63()                   // want `global rand\.Int63 draws from the shared process-wide source`
	_ = rand.Perm(4)                   // want `global rand\.Perm draws from the shared process-wide source`
	rand.Shuffle(3, func(i, j int) {}) // want `global rand\.Shuffle draws from the shared process-wide source`
	rand.Seed(42)                      // want `global rand\.Seed draws from the shared process-wide source`
}

// A global draw is flagged inside the sanctioned constructor too: a seed
// drawn from the shared source makes the seeded generator unreproducible.
func seedFromGlobal() *rand.Rand {
	return rand.New(rand.NewSource(rand.Int63())) // want `global rand\.Int63 draws from the shared process-wide source`
}

// Types from the package are fine; only global draws are banned.
var source rand.Source = rand.NewSource(7)

func suppressed() {
	//lint:ignore seededrand demo code, determinism irrelevant here
	_ = rand.Intn(3)
}
