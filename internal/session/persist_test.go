package session

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"disjunct/internal/db"
	"disjunct/internal/logic"
	"disjunct/internal/store"
)

func mustParse(t *testing.T, text string) *db.DB {
	t.Helper()
	d, err := db.Parse(text)
	if err != nil {
		t.Fatalf("parse %q: %v", text, err)
	}
	return d
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, _, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return s
}

// The workload: a general (non-fast-path) DB so queries go through the
// warm session and its memo, plus a definite DB exercising artifacts
// on the fast path.
const (
	generalDB  = "a | b. c :- a. c :- b.\n"
	definiteDB = "p. q :- p. r :- q.\n"
)

// litFor resolves a positive literal by atom name in the artifact's
// vocabulary.
func litFor(t *testing.T, comp *Compiled, name string) logic.Lit {
	t.Helper()
	a, ok := comp.D.Voc.Lookup(name)
	if !ok {
		t.Fatalf("atom %q not in vocabulary", name)
	}
	return logic.PosLit(a)
}

func runWorkload(t *testing.T, m *Manager) {
	t.Helper()
	gen := m.Intern(generalDB, mustParse(t, generalDB))
	def := m.Intern(definiteDB, mustParse(t, definiteDB))
	ctx := context.Background()
	for _, q := range []string{"c", "a", "b"} {
		lit := litFor(t, gen, q)
		if _, ok := m.Query(ctx, gen, Request{Sem: "GCWA", Kind: KindLiteral, Lit: lit, QueryText: q}); !ok {
			t.Fatalf("warm query %q unhandled", q)
		}
	}
	lit := litFor(t, def, "r")
	res, ok := m.Query(ctx, def, Request{Sem: "GCWA", Kind: KindLiteral, Lit: lit, QueryText: "r"})
	if !ok || !res.Holds || res.Path != "fast" {
		t.Fatalf("definite fast query = %+v ok=%v", res, ok)
	}
}

// TestStoreRoundTrip runs a workload against a store-backed manager,
// closes everything, reopens, and asserts the second process compiles
// nothing cold, seeds its memos from disk, and repeats every verdict
// with zero NP calls — matching a storeless manager's verdicts exactly.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()

	// Process 1: cold.
	s1 := openStore(t, dir)
	m1 := NewManager(Config{Store: s1})
	runWorkload(t, m1)
	st1 := m1.Stats()
	if st1.ColdCompiles != 2 || st1.StoreArtifactHits != 0 {
		t.Fatalf("cold process stats = %+v", st1)
	}
	if err := s1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Storeless reference for verdict identity.
	ref := NewManager(Config{})
	refVerdicts := collectVerdicts(t, ref)

	// Process 2: pre-warmed restart.
	s2 := openStore(t, dir)
	defer s2.Close()
	m2 := NewManager(Config{Store: s2})
	n, err := m2.Prewarm()
	if err != nil {
		t.Fatalf("Prewarm: %v", err)
	}
	if n != 2 {
		t.Fatalf("Prewarm loaded %d artifacts, want 2", n)
	}
	// The prewarmed cache must serve Lookup directly (the serve fast
	// path) without Intern.
	if _, ok := m2.Lookup(generalDB); !ok {
		t.Fatal("prewarmed artifact missing from Lookup")
	}
	got := collectVerdicts(t, m2)
	for q, want := range refVerdicts {
		if got[q] != want {
			t.Fatalf("verdict divergence after restart: %q = %v, storeless says %v", q, got[q], want)
		}
	}
	st2 := m2.Stats()
	if st2.ColdCompiles != 0 {
		t.Fatalf("pre-warmed process ran %d cold compiles, want 0 (stats %+v)", st2.ColdCompiles, st2)
	}
	if st2.PrewarmedArtifacts != 2 {
		t.Fatalf("prewarmed artifacts = %d, want 2", st2.PrewarmedArtifacts)
	}
	if st2.StoreVerdictSeeds == 0 {
		t.Fatal("no verdict memos seeded from the store")
	}
	if st2.MemoHits == 0 {
		t.Fatal("replayed warm queries missed the seeded memo")
	}
}

// collectVerdicts replays the workload queries and returns verdicts,
// asserting replayed warm queries on a seeded manager cost zero NP.
func collectVerdicts(t *testing.T, m *Manager) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	gen := m.Intern(generalDB, mustParse(t, generalDB))
	ctx := context.Background()
	for _, q := range []string{"c", "a", "b"} {
		lit := litFor(t, gen, q)
		res, ok := m.Query(ctx, gen, Request{Sem: "GCWA", Kind: KindLiteral, Lit: lit, QueryText: q})
		if !ok {
			t.Fatalf("query %q unhandled", q)
		}
		if res.Err != nil {
			t.Fatalf("query %q: %v", q, res.Err)
		}
		out[q] = res.Holds
	}
	return out
}

// TestStoreMemoSeededRepeatZeroNP asserts the core replay contract: a
// restarted manager answers previously completed warm queries from the
// persisted memo with zero NP calls.
func TestStoreMemoSeededRepeatZeroNP(t *testing.T) {
	dir := t.TempDir()
	s1 := openStore(t, dir)
	m1 := NewManager(Config{Store: s1})
	runWorkload(t, m1)
	s1.Close()

	s2 := openStore(t, dir)
	defer s2.Close()
	m2 := NewManager(Config{Store: s2})
	if _, err := m2.Prewarm(); err != nil {
		t.Fatal(err)
	}
	gen, ok := m2.Lookup(generalDB)
	if !ok {
		t.Fatal("prewarmed artifact missing")
	}
	lit := litFor(t, gen, "c")
	res, handled := m2.Query(context.Background(), gen, Request{Sem: "GCWA", Kind: KindLiteral, Lit: lit, QueryText: "c"})
	if !handled || res.Err != nil {
		t.Fatalf("replay = %+v handled=%v", res, handled)
	}
	if res.Counters.NPCalls != 0 {
		t.Fatalf("memo-seeded replay cost %d NP calls, want 0", res.Counters.NPCalls)
	}
	if m2.Stats().MemoHits != 1 {
		t.Fatalf("memo hits = %d, want 1", m2.Stats().MemoHits)
	}
}

// TestStoreFragMismatchRecompiles asserts the cross-check: a persisted
// artifact whose recorded fragment disagrees with re-derivation is
// discarded and the compile runs cold (and repairs the store).
func TestStoreFragMismatchRecompiles(t *testing.T) {
	dir := t.TempDir()
	s1 := openStore(t, dir)
	// A forged record: definite text recorded as general.
	s1.PutArtifact(store.Artifact{Text: definiteDB, Frag: uint8(FragGeneral)})
	s1.Flush()

	m := NewManager(Config{Store: s1})
	if n, err := m.Prewarm(); err != nil || n != 0 {
		t.Fatalf("Prewarm loaded %d (err %v), want 0 — forged record must be skipped", n, err)
	}
	comp := m.Intern(definiteDB, mustParse(t, definiteDB))
	if comp.Frag != FragDefinite {
		t.Fatalf("fragment = %v, want definite", comp.Frag)
	}
	st := m.Stats()
	if st.ColdCompiles != 1 || st.StoreArtifactHits != 0 {
		t.Fatalf("forged record was trusted: %+v", st)
	}
	s1.Flush()
	if a, ok := s1.Artifact(definiteDB); !ok || a.Frag != uint8(FragDefinite) {
		t.Fatalf("store not repaired after cold recompile: %+v ok=%v", a, ok)
	}
	s1.Close()
}

// TestPrewarmKeyedLegacyLog: a store log whose artifact records carry
// a non-empty canonical class key — the layout written while compiled
// artifacts had one — reopens with every artifact and verdict, and
// Prewarm loads every artifact, so the restart compiles nothing cold
// and answers the persisted queries from the seeded memo.
func TestPrewarmKeyedLegacyLog(t *testing.T) {
	// Process 1 supplies real verdict records.
	s1 := openStore(t, t.TempDir())
	runWorkload(t, NewManager(Config{Store: s1}))
	verdicts := s1.AllVerdicts()
	s1.Close()

	record := func(typ byte, fields []string, last byte) []byte {
		var p []byte
		for _, f := range fields {
			p = binary.AppendUvarint(p, uint64(len(f)))
			p = append(p, f...)
		}
		p = append(p, last)
		r := binary.AppendUvarint([]byte{typ}, uint64(len(p)))
		r = binary.LittleEndian.AppendUint32(r, crc32.ChecksumIEEE(p))
		return append(r, p...)
	}
	log := []byte("DDBSTOR1\n")
	for i, text := range []string{generalDB, definiteDB} {
		frag := uint8(Compile(text, mustParse(t, text)).Frag)
		log = append(log, record(1, []string{text, "\x03\x02\x00legacy-key-" + string(rune('a'+i))}, frag)...)
	}
	for _, v := range verdicts {
		holds := byte(0)
		if v.Holds {
			holds = 1
		}
		log = append(log, record(2, []string{v.Raw, v.Sem, v.MemoKey}, holds)...)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "store.log"), log, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, rec, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec.TornTail || rec.Dropped != 0 || rec.Artifacts != 2 || rec.Verdicts != len(verdicts) {
		t.Fatalf("recovery = %+v, want 2 artifacts and %d verdicts", rec, len(verdicts))
	}
	m := NewManager(Config{Store: s2})
	if n, err := m.Prewarm(); err != nil || n != 2 {
		t.Fatalf("Prewarm loaded %d (err %v), want 2", n, err)
	}
	ref := collectVerdicts(t, NewManager(Config{}))
	for q, v := range collectVerdicts(t, m) {
		if v != ref[q] {
			t.Fatalf("verdict divergence: %q = %v, storeless says %v", q, v, ref[q])
		}
	}
	m.Intern(definiteDB, mustParse(t, definiteDB))
	if st := m.Stats(); st.ColdCompiles != 0 || st.PrewarmedArtifacts != 2 || st.MemoHits == 0 {
		t.Fatalf("restart from a keyed log: %+v", st)
	}
}

// TestPrewarmWithoutStore errors rather than silently no-ops.
func TestPrewarmWithoutStore(t *testing.T) {
	if _, err := NewManager(Config{}).Prewarm(); err == nil {
		t.Fatal("Prewarm without store succeeded")
	}
}

// TestPrewarmDropsReservedWordText: a persisted artifact whose text
// names an atom "not" — accepted before "not" became a keyword — is a
// whole record, so recovery keeps it (no torn tail, nothing truncated)
// and Prewarm drops it on the "does not compile" path, while the valid
// record beside it loads.
func TestPrewarmDropsReservedWordText(t *testing.T) {
	const reserved = "not | a.\n"
	if _, err := db.Parse(reserved); !errors.Is(err, db.ErrReservedWord) {
		t.Fatalf("Parse(%q) = %v, want ErrReservedWord", reserved, err)
	}
	dir := t.TempDir()
	s1 := openStore(t, dir)
	s1.PutArtifact(store.Artifact{Text: reserved, Frag: uint8(FragGeneral)})
	s1.PutArtifact(store.Artifact{Text: generalDB, Frag: uint8(FragGeneral)})
	s1.Close()

	s2, rec, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	defer s2.Close()
	if rec.TornTail || rec.Dropped != 0 || rec.Artifacts != 2 {
		t.Fatalf("recovery = %+v, want both records whole", rec)
	}
	m := NewManager(Config{Store: s2})
	if n, err := m.Prewarm(); err != nil || n != 1 {
		t.Fatalf("Prewarm loaded %d (err %v), want 1: the reserved-word text must be dropped", n, err)
	}
	if comp, ok := m.Lookup(reserved); ok || comp != nil {
		t.Fatalf("reserved-word text was cached")
	}
	if _, ok := m.Lookup(generalDB); !ok {
		t.Fatalf("valid artifact beside it was not pre-warmed")
	}
}
