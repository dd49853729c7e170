package chaos

import (
	"math/rand"
	"sort"
)

// WALFaults draws the storage-level fault coordinates the crash-recovery
// harness injects into the analyzer daemon's write-ahead log: where to
// SIGKILL a run mid-ingest, where to shear a log file, and which bit to
// flip to simulate media corruption. Like every chaos source it is a pure
// function of its seed — the same seed replays the same crash schedule,
// so a recovery failure reproduces exactly.
type WALFaults struct {
	rng *rand.Rand
}

// walSeedMix decorrelates the WAL fault stream from other consumers of the
// same case seed (same constant family as the kernel's seed mixing).
const walSeedMix = 0x1E3779B97F4A7C15

// NewWALFaults builds a deterministic fault source for one seed.
func NewWALFaults(seed int64) *WALFaults {
	return &WALFaults{rng: rand.New(rand.NewSource(seed ^ walSeedMix))}
}

// CutPoint picks the byte offset at which to shear a file of the given
// size — the stand-in for a crash that tore a partially-written tail. The
// draw is uniform over [0, size): cutting at header boundaries, inside a
// length prefix, and mid-payload are all reachable.
func (w *WALFaults) CutPoint(size int64) int64 {
	if size <= 0 {
		return 0
	}
	return w.rng.Int63n(size)
}

// FlipBit picks a corruption coordinate in a file of the given size: the
// byte offset and the bit (0-7) to invert. It models in-place media
// corruption rather than a torn write, so recovery's CRC check — not the
// length framing — has to catch it.
func (w *WALFaults) FlipBit(size int64) (offset int64, bit uint) {
	if size <= 0 {
		return 0, 0
	}
	return w.rng.Int63n(size), uint(w.rng.Intn(8))
}

// ShardKill schedules the SIGKILL of one fleet shard: once AfterAcked
// lines have been answered in total, shard Shard dies (and its
// supervisor restarts it).
type ShardKill struct {
	// AfterAcked is the cumulative fleet-wide count of answered lines
	// that triggers the kill.
	AfterAcked int
	// Shard is the shard index to SIGKILL.
	Shard int
}

// ShardKills draws a fleet kill schedule: every shard in [0, shards) is
// killed exactly once, at distinct acked counts in [1, msgs], so the
// kill-any-shard byte-identity property is exercised against each fleet
// member in one run. The plan comes back sorted by AfterAcked so the
// harness consumes it as it counts acknowledgements; which shard dies at
// which point is a seeded shuffle. Fewer kills come back when msgs is too
// small to supply a distinct point per shard.
func (w *WALFaults) ShardKills(shards, msgs int) []ShardKill {
	if shards <= 0 {
		return nil
	}
	points := w.CrashPoints(shards, msgs)
	order := w.rng.Perm(shards)
	plan := make([]ShardKill, 0, len(points))
	for i, p := range points {
		plan = append(plan, ShardKill{AfterAcked: p, Shard: order[i]})
	}
	return plan
}

// BatchShardKills draws the kill schedule for a pipelined run, where the
// harness flushes batch i of sizes[i] messages bound for shard owners[i],
// one batch after the other: every shard that is sent a batch of at least
// two messages dies exactly once, strictly inside one of its batches (a
// seeded choice of batch and offset), so the kill finds the head of the
// batch answered and the rest still in flight on the shard's link.
// AfterAcked counts answered lines across the whole run; the plan comes
// back sorted by it.
func (w *WALFaults) BatchShardKills(sizes, owners []int) []ShardKill {
	type span struct{ start, size int }
	byShard := map[int][]span{}
	start := 0
	for i, size := range sizes {
		if i < len(owners) && size >= 2 {
			byShard[owners[i]] = append(byShard[owners[i]], span{start, size})
		}
		start += size
	}
	shards := make([]int, 0, len(byShard))
	for s := range byShard {
		shards = append(shards, s)
	}
	sort.Ints(shards)
	plan := make([]ShardKill, 0, len(shards))
	for _, s := range shards {
		b := byShard[s][w.rng.Intn(len(byShard[s]))]
		plan = append(plan, ShardKill{AfterAcked: b.start + 1 + w.rng.Intn(b.size-1), Shard: s})
	}
	sort.Slice(plan, func(i, j int) bool { return plan[i].AfterAcked < plan[j].AfterAcked })
	return plan
}

// CrashPoints draws n distinct message indices in [1, msgs] at which the
// harness SIGKILLs the daemon mid-ingest, sorted ascending so a run can
// consume them as it counts acknowledged messages. Fewer than n points
// come back when msgs is too small to supply distinct ones.
func (w *WALFaults) CrashPoints(n, msgs int) []int {
	if n <= 0 || msgs <= 0 {
		return nil
	}
	if n > msgs {
		n = msgs
	}
	seen := make(map[int]bool, n)
	points := make([]int, 0, n)
	for len(points) < n {
		p := w.rng.Intn(msgs) + 1
		if seen[p] {
			continue
		}
		seen[p] = true
		points = append(points, p)
	}
	sort.Ints(points)
	return points
}
