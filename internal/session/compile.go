// Package session makes repeat traffic against the same database
// near-free. It layers four amortizations over the per-request
// pipeline of internal/serve:
//
//  1. A compiled-DB artifact cache: grounding, CNF construction, the
//     RawKey fingerprint and fragment classification are computed once
//     per distinct database text and shared by every later request
//     (goroutine-safe, byte-accounted LRU). A text enters the cache on
//     its second sighting, so one-off databases never churn it.
//  2. A verdict memo on each cached artifact: every completed verdict,
//     whatever route produced it, answers repeats of its query with
//     zero oracle work (memo.go).
//  3. A fragment-aware fast path: databases the compiler classifies as
//     definite, Horn, or stratified-normal are decided by the
//     polynomial fixpoint algorithms (internal/fixpoint, internal/wfs)
//     with ZERO NP oracle calls — the executable form of the paper's
//     P-cell membership arguments — for exactly the semantics whose
//     model set provably collapses on the fragment.
//  4. Warm incremental solver sessions: for the minimal-model family
//     (GCWA/CCWA/EGCWA/ECWA/CIRC) one session per (database,
//     semantics) pair keeps one models.IncrementalEngine alive across
//     requests (each asks MM(DB) ⊨ F or model existence); queries
//     attach through activation literals and learned clauses persist.
//
// Verdicts are identical to the fresh path by construction (the
// semtest cross-check suite verifies all three routes against the
// fresh engines for every registered semantics); the counters the
// bench harness gates prove fast-path queries use 0 NP calls and
// session workloads never exceed the fresh totals.
package session

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"sync/atomic"

	"disjunct/internal/db"
	"disjunct/internal/fixpoint"
	"disjunct/internal/logic"
	"disjunct/internal/strat"
	"disjunct/internal/wfs"
)

// Fragment is the compiler's syntactic classification of a database,
// in decreasing order of fast-path strength.
type Fragment int

const (
	// FragGeneral: no polynomial fast path applies.
	FragGeneral Fragment = iota
	// FragDefinite: every clause is definite (one head atom, no
	// negation, no integrity clause). The DB has the single least model
	// computed by unit propagation, and every registered semantics
	// collapses to it.
	FragDefinite
	// FragHorn: at most one head atom per clause and no negation, with
	// at least one integrity clause. The definite subset has a least
	// model L; the DB is consistent iff L satisfies the denials, and
	// then {L} is the model set of every Horn-applicable semantics.
	FragHorn
	// FragStratNormal: a normal program (exactly one head per clause)
	// with negation that is stratifiable; its well-founded model is
	// total and equals the unique stable/perfect model.
	FragStratNormal
)

// String names the fragment for stats and bench output.
func (f Fragment) String() string {
	switch f {
	case FragDefinite:
		return "definite"
	case FragHorn:
		return "horn"
	case FragStratNormal:
		return "strat_normal"
	default:
		return "general"
	}
}

// Compiled is the per-database artifact: everything derivable from the
// database alone, computed once and shared by all requests that name
// the same database. The exported fields are immutable after Compile;
// the verdict memo is attached when the Manager caches the artifact.
type Compiled struct {
	// Text is the database text the artifact was compiled from (the
	// cache key).
	Text string
	// D is the parsed database. Inference treats it as read-only, so
	// one instance serves concurrent requests.
	D *db.DB
	// N is the vocabulary size.
	N int
	// CNF is the grounded clausal form (db.ToCNF, built once).
	CNF logic.CNF
	// Raw is the exact fingerprint of (N, CNF) — the session key: equal
	// Raw means the indexed CNF is byte-identical, so verdicts and
	// variable maps transfer between requests verbatim.
	Raw string
	// HasNeg / HasIC are the applicability features of the database.
	HasNeg bool
	HasIC  bool
	// Frag is the fast-path classification.
	Frag Fragment
	// Least is the least model backing the definite/Horn fast path
	// (of the whole DB when definite, of the definite subset when Horn).
	Least logic.Interp
	// Consistent reports whether the Horn DB's least model satisfies
	// its denials (always true for definite DBs). When false the DB is
	// unsatisfiable and the fragment's model set is empty.
	Consistent bool
	// Stable is the total well-founded (= unique stable = perfect)
	// model backing the stratified-normal fast path.
	Stable logic.Interp
	// Bytes is the artifact's accounted size for the LRU budget.
	Bytes int64

	// memo is the verdict table, nil unless the artifact is cached.
	memo atomic.Pointer[memo]
	// digestOnce/digest: see textDigest.
	digestOnce sync.Once
	digest     string
	// hcfOnce/hcf: see HeadCycleFree.
	hcfOnce sync.Once
	hcf     bool
}

// Compile builds the artifact for a database parsed from text (the
// Manager keys artifacts by the text).
func Compile(text string, d *db.DB) *Compiled {
	cnf := d.ToCNF()
	n := d.N()
	c := &Compiled{
		Text:       text,
		D:          d,
		N:          n,
		CNF:        cnf,
		Raw:        RawKey(n, cnf),
		HasNeg:     d.HasNegation(),
		HasIC:      d.HasIntegrityClauses(),
		Consistent: true,
	}
	c.classify()
	bytes := int64(len(text)) + int64(len(c.Raw)) + 256
	for _, cl := range cnf {
		bytes += 8 + 4*int64(len(cl))
	}
	bytes += int64(n) // interps, maps
	c.Bytes = bytes
	return c
}

// RawKey is the exact fingerprint of a CNF over nVars variables: the
// variable count and the clause sequence verbatim (order, duplicates
// and all), uvarint-framed. It keys the session's warm sessions and
// verdict memos, the store's verdicts, the router's
// consistent-hash ring and the keyspace arcs, so its bytes are part of
// the persisted and on-the-wire format.
func RawKey(nVars int, cnf logic.CNF) string {
	buf := make([]byte, 0, 16+4*len(cnf))
	buf = binary.AppendUvarint(buf, uint64(nVars))
	buf = binary.AppendUvarint(buf, uint64(len(cnf)))
	for _, c := range cnf {
		buf = binary.AppendUvarint(buf, uint64(len(c)))
		for _, l := range c {
			buf = binary.AppendUvarint(buf, uint64(l))
		}
	}
	return string(buf)
}

// textDigest names the artifact's text in persisted and handed-off
// verdict records: the first 16 bytes of its SHA-256, in hex. A record
// applies only to the text that produced it, because two texts with
// one RawKey can name atoms differently or split clauses differently
// (`a :- not b.` and `a | b.` share a CNF), and then their verdicts
// differ.
func (c *Compiled) textDigest() string {
	c.digestOnce.Do(func() {
		sum := sha256.Sum256([]byte(c.Text))
		c.digest = hex.EncodeToString(sum[:16])
	})
	return c.digest
}

// HeadCycleFree reports strat.HeadCycleFree(c.D), computed on first
// use and kept: only minimal-model streams ask, so query traffic never
// pays for it.
func (c *Compiled) HeadCycleFree() bool {
	c.hcfOnce.Do(func() { c.hcf = strat.HeadCycleFree(c.D) })
	return c.hcf
}

// classify determines the fragment and precomputes its fixpoint model.
func (c *Compiled) classify() {
	definite, horn := true, true
	for _, cl := range c.D.Clauses {
		if !cl.IsDefinite() {
			definite = false
		}
		if len(cl.Head) > 1 || len(cl.NegBody) != 0 {
			horn = false
		}
	}
	switch {
	case definite:
		c.Frag = FragDefinite
		c.Least = fixpoint.LeastModel(c.D)
	case horn:
		// Least model of the definite subset; denials checked against it.
		sub := db.NewWithVocab(c.D.Voc)
		for _, cl := range c.D.Clauses {
			if !cl.IsIntegrity() {
				sub.Add(cl.Clone())
			}
		}
		c.Frag = FragHorn
		c.Least = fixpoint.LeastModel(sub)
		for _, cl := range c.D.Clauses {
			if cl.IsIntegrity() && !cl.Sat(c.Least) {
				// The least model violates a denial; since it is ≤ every
				// model of the definite subset and denials are
				// anti-monotone in their positive bodies, the whole DB is
				// unsatisfiable.
				c.Consistent = false
				break
			}
		}
	case c.HasNeg && wfs.IsNormal(c.D):
		if _, ok := strat.Compute(c.D); !ok {
			return
		}
		m, total := wfs.TotalStable(c.D)
		if !total {
			return
		}
		c.Frag = FragStratNormal
		c.Stable = m
	}
}
