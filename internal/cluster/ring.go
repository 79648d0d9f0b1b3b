// Package cluster is the horizontal tier over internal/serve: a
// stateless HTTP router that consistent-hash-routes inference requests
// onto a set of ddbserve workers, keyed by the compiled database's
// fingerprint so warm sessions and verdict memos keep their hit rates
// no matter how many nodes serve the keyspace.
//
// The paper's complexity landscape makes the locality worth the
// machinery: a Σ₂ᵖ-cell query against a warm session costs a memo
// lookup, against a cold node it costs a fresh exponential-in-the-
// worst-case solve. Routing therefore optimizes for key affinity
// first, and the failure machinery — per-node health probes, node
// breakers, bounded failover with seeded jitter, drain-with-handoff —
// preserves the serve layer's typed-outcome contract across process
// boundaries: every request either completes with a verdict identical
// to a single-node reference, fails over transparently, or sheds with
// a typed reason. No outcome is ever untyped.
package cluster

import (
	"fmt"
	"sort"
	"sync"

	"disjunct/internal/keyspace"
)

// The ring's placement function lives in internal/keyspace so the
// serve layer's handoff slicing and the join orchestration agree
// byte-for-byte on where a key lives. These aliases keep the call
// sites short.
func fnv64a(s string) uint64     { return keyspace.FNV64a(s) }
func splitmix64(x uint64) uint64 { return keyspace.Splitmix64(x) }
func hashKey(key string) uint64  { return keyspace.HashKey(key) }

// Ring is a consistent-hash ring with virtual nodes. Membership
// changes remap only the slice of the keyspace owned by the node that
// joined or left — the property the ring-stability test gates — so a
// failover or drain disturbs the session locality of exactly the
// departed node's keys and nobody else's.
//
// All methods are goroutine-safe. The zero value is not usable; use
// NewRing.
type Ring struct {
	mu       sync.RWMutex
	replicas int
	points   []ringPoint // sorted by hash
	members  map[string]bool
}

type ringPoint struct {
	hash uint64
	node string
}

// DefaultReplicas is the virtual-node count per member: high enough
// that a 3-node ring splits the keyspace within a few percent of
// evenly, low enough that membership changes rebuild in microseconds.
const DefaultReplicas = 64

// NewRing builds a ring with the given virtual-node count per member
// (≤ 0 selects DefaultReplicas).
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	return &Ring{replicas: replicas, members: map[string]bool{}}
}

// Add inserts a member (idempotent); it reports whether the
// membership actually changed, so callers can bump the epoch exactly
// when the ring did.
func (r *Ring) Add(node string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[node] {
		return false
	}
	r.members[node] = true
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{
			hash: splitmix64(fnv64a(fmt.Sprintf("%s#%d", node, i))),
			node: node,
		})
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return true
}

// Remove deletes a member (idempotent), reporting whether it was
// present. Keys it owned flow to their ring successors; every other
// key keeps its owner.
func (r *Ring) Remove(node string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.members[node] {
		return false
	}
	delete(r.members, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
	return true
}

// SetMembers replaces the membership wholesale with a diff update:
// members present in both sets keep their existing virtual nodes
// (their keys never remap), so adopting a gossiped membership disturbs
// exactly the keys of the nodes that actually joined or left.
func (r *Ring) SetMembers(members []string) {
	want := make(map[string]bool, len(members))
	for _, m := range members {
		want[m] = true
	}
	r.mu.Lock()
	changed := false
	for m := range r.members {
		if !want[m] {
			delete(r.members, m)
			changed = true
			kept := r.points[:0]
			for _, p := range r.points {
				if p.node != m {
					kept = append(kept, p)
				}
			}
			r.points = kept
		}
	}
	for m := range want {
		if !r.members[m] {
			r.members[m] = true
			changed = true
			for i := 0; i < r.replicas; i++ {
				r.points = append(r.points, ringPoint{
					hash: splitmix64(fnv64a(fmt.Sprintf("%s#%d", m, i))),
					node: m,
				})
			}
		}
	}
	if changed {
		sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	}
	r.mu.Unlock()
}

// OwnedRanges returns the keyspace slice a member owns on this ring:
// for each of its virtual nodes, the arc from the previous ring point
// (exclusive) to the virtual node's hash (inclusive) — exactly the
// keys whose clockwise successor point belongs to the member. A
// single-member ring owns the full circle; an unknown member owns
// nothing.
func (r *Ring) OwnedRanges(node string) keyspace.Ranges {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if !r.members[node] || len(r.points) == 0 {
		return nil
	}
	if len(r.members) == 1 {
		// All points belong to the node; any single point's arc "from
		// itself all the way around" is the full circle.
		h := r.points[0].hash
		return keyspace.Ranges{{Lo: h, Hi: h}}
	}
	var rs keyspace.Ranges
	for i, p := range r.points {
		if p.node != node {
			continue
		}
		prev := r.points[(i+len(r.points)-1)%len(r.points)]
		if prev.hash == p.hash {
			// Colliding adjacent points: the arc is zero-width, but
			// Lo == Hi would read as the full circle. Skip it.
			continue
		}
		rs = append(rs, keyspace.Range{Lo: prev.hash, Hi: p.hash})
	}
	return rs
}

// Members returns the current membership, sorted.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.members))
	for n := range r.members {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Size reports the member count.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Owner returns the member owning a key ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	seq := r.Sequence(key, 1)
	if len(seq) == 0 {
		return ""
	}
	return seq[0]
}

// Sequence returns up to k distinct members in ring order starting at
// the key's owner — the failover order: if the owner is down, the
// next member in the sequence is the one that would own the key were
// the owner removed, so retried requests land exactly where a ring
// flip would move them (warm state follows the same path on drain).
func (r *Ring) Sequence(key string, k int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || k <= 0 {
		return nil
	}
	if k > len(r.members) {
		k = len(r.members)
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(j int) bool { return r.points[j].hash >= h })
	out := make([]string, 0, k)
	seen := make(map[string]bool, k)
	for n := 0; n < len(r.points) && len(out) < k; n++ {
		p := r.points[(i+n)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}
