// Package keyspace is the one shared definition of where a routing
// key lives on the cluster's hash circle. The consistent-hash ring
// (internal/cluster), the serve layer's handoff slicing, and the join
// orchestration all need to agree byte-for-byte on the same placement
// function — a worker exporting "the slice a joining node will own"
// computes membership of exactly the hash ranges the router derived
// from its ring — so the hash and the range arithmetic live in this
// leaf package instead of being duplicated per layer.
//
// Keys are compiled-database fingerprints (session.RawKey output), but
// nothing here depends on that: any string key hashes to a point on
// the 64-bit circle, and a Range is a half-open arc (Lo, Hi] of that
// circle, wrapping through zero when Lo >= Hi.
package keyspace

import (
	"fmt"
	"strconv"
	"strings"
)

// FNV64a is FNV-1a: stable across processes (unlike Go's map
// iteration or maphash seeds), cheap, and well distributed once spread
// through Splitmix64.
func FNV64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Splitmix64 finishes the avalanche; FNV alone clusters similar keys.
func Splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashKey places a routing key on the circle.
func HashKey(key string) uint64 { return Splitmix64(FNV64a(key)) }

// Range is the half-open arc (Lo, Hi] of the hash circle: a point h
// is inside when Lo < h <= Hi, walking clockwise (increasing hash,
// wrapping through zero when Lo >= Hi). A ring member's keyspace is
// the union of the arcs ending at its virtual nodes — exactly the
// keys whose clockwise successor point is one of the member's.
type Range struct {
	Lo uint64 `json:"lo"`
	Hi uint64 `json:"hi"`
}

// Contains reports whether a hash point lies on the arc. A range with
// Lo == Hi is the full circle (the single-member ring owns
// everything), which the wrap rule covers for free.
func (r Range) Contains(h uint64) bool {
	if r.Lo < r.Hi {
		return h > r.Lo && h <= r.Hi
	}
	return h > r.Lo || h <= r.Hi
}

// Ranges is a keyspace slice: the union of arcs.
type Ranges []Range

// Contains reports whether any arc holds the point.
func (rs Ranges) Contains(h uint64) bool {
	for _, r := range rs {
		if r.Contains(h) {
			return true
		}
	}
	return false
}

// ContainsKey hashes the key and tests membership.
func (rs Ranges) ContainsKey(key string) bool { return rs.Contains(HashKey(key)) }

// String renders the slice as "lo-hi,lo-hi,…" in hex — compact enough
// for a query parameter even at 64 virtual nodes per member.
func (rs Ranges) String() string {
	var b strings.Builder
	for i, r := range rs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%x-%x", r.Lo, r.Hi)
	}
	return b.String()
}

// ParseRanges inverts String. An empty input is an empty slice (which
// contains nothing); a malformed arc is an error, never a guess — a
// worker must not silently export the wrong slice.
func ParseRanges(s string) (Ranges, error) {
	if s == "" {
		return nil, nil
	}
	var rs Ranges
	for _, part := range strings.Split(s, ",") {
		lo, hi, ok := strings.Cut(part, "-")
		if !ok {
			return nil, fmt.Errorf("keyspace: range %q is not lo-hi", part)
		}
		l, err := strconv.ParseUint(lo, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("keyspace: range %q: %v", part, err)
		}
		h, err := strconv.ParseUint(hi, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("keyspace: range %q: %v", part, err)
		}
		rs = append(rs, Range{Lo: l, Hi: h})
	}
	return rs, nil
}
