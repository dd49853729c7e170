package wire

import (
	"fmt"
	"sort"
)

// DefaultShardReplicas is the number of virtual nodes each shard
// contributes to the consistent-hash ring when ShardMap.Replicas is
// unset. More replicas smooth the key distribution at the cost of a
// larger (still tiny) ring.
const DefaultShardReplicas = 64

// ShardMap describes how a diagnosis fleet partitions clients across
// shard daemons. It is part of the wire schema: the router, every
// shard, and recovery all derive ownership from the same map, so the
// map must be identical everywhere for the fleet's exactly-once
// guarantees to hold. A fleet's map is fixed when it starts.
type ShardMap struct {
	// Shards is the number of shard daemons in the fleet.
	Shards int `json:"shards"`
	// Replicas is the number of virtual nodes per shard on the hash
	// ring; zero means DefaultShardReplicas.
	Replicas int `json:"replicas,omitempty"`
}

// replicas resolves the virtual-node count (zero means the default).
func (m ShardMap) replicas() int {
	if m.Replicas == 0 {
		return DefaultShardReplicas
	}
	return m.Replicas
}

// ringPoint is one virtual node on the consistent-hash ring.
type ringPoint struct {
	hash  uint64
	shard int
}

// HashRing is an immutable consistent-hash ring over a ShardMap. A key
// is owned by the shard of the first virtual node at or clockwise of
// the key's FNV-1a hash. Safe for concurrent use once built.
type HashRing struct {
	points []ringPoint
	shards int
}

// NewHashRing builds the ring for m. The construction is fully
// deterministic: the same map yields the same ring (and therefore the
// same ownership function) in every process.
func NewHashRing(m ShardMap) (*HashRing, error) {
	if m.Shards <= 0 {
		return nil, fmt.Errorf("wire: shard map needs at least one shard, got %d", m.Shards)
	}
	if m.Replicas < 0 {
		return nil, fmt.Errorf("wire: shard map replicas cannot be negative, got %d", m.Replicas)
	}
	replicas := m.replicas()
	r := &HashRing{shards: m.Shards, points: make([]ringPoint, 0, m.Shards*replicas)}
	for s := 0; s < m.Shards; s++ {
		for v := 0; v < replicas; v++ {
			label := fmt.Sprintf("shard-%d#%d", s, v)
			r.points = append(r.points, ringPoint{hash: fnv64a(label), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r, nil
}

// Shards returns the number of shards the ring was built for.
func (r *HashRing) Shards() int { return r.shards }

// Owner returns the index of the shard owning key.
func (r *HashRing) Owner(key string) int {
	h := fnv64a(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point back to the ring start
	}
	return r.points[i].shard
}

// Moved reports whether the ring assigns client, currently held by shard
// from, to a different shard, and which. This is the one statement of the
// ownership rule — ingest and recovery both ask it — and of its
// exception: an unnamed (peer-keyed) client has no hash key, so it never
// moves.
func (r *HashRing) Moved(client string, from int) (to int, moved bool) {
	if client == "" {
		return from, false
	}
	to = r.Owner(client)
	return to, to != from
}

// fnv64a is the 64-bit FNV-1a hash with a murmur3-style avalanche
// finalizer, inlined so the ring never allocates a hasher per key. Raw
// FNV output for short, similar strings ("shard-1#0", "shard-1#1", …)
// clusters into tight bands that would leave most of the ring owned by
// one shard; the finalizer spreads those bands across the full 64-bit
// space.
func fnv64a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
