package session

import (
	"testing"

	"disjunct/internal/logic"
)

// TestInternAdmitsOnSecondSighting: a text is compiled but not cached
// on first sight; the second sighting caches it; InternDB caches at
// once.
func TestInternAdmitsOnSecondSighting(t *testing.T) {
	m := NewManager(Config{})
	text := "a | b. b | c.\n"
	first := m.Intern(text, mustParse(t, text))
	if _, ok := m.Lookup(text); ok || first.memo.Load() != nil {
		t.Fatal("first sighting was cached")
	}
	second := m.Intern(text, mustParse(t, text))
	if got, ok := m.Lookup(text); !ok || got != second || second.memo.Load() == nil {
		t.Fatal("second sighting was not cached with a memo")
	}
	d := mustParse(t, "p | q.")
	comp := m.InternDB(d)
	if got, ok := m.Lookup(d.String()); !ok || got != comp {
		t.Fatal("InternDB did not cache at once")
	}
	if st := m.Stats(); st.CompiledEntries != 2 || st.ColdCompiles != 3 {
		t.Fatalf("stats %+v, want 2 cached of 3 compiles", st)
	}
}

// TestPersistedVerdictStaysWithItsText: `a :- not b. c | d.` and
// `a | b. c | d.` share a RawKey and disagree on DSM ⊨ ¬b. A verdict
// persisted for one seeds that text's memo after a restart and never
// the other's.
func TestPersistedVerdictStaysWithItsText(t *testing.T) {
	texts := []string{"a :- not b. c | d.\n", "a | b. c | d.\n"}
	dir := t.TempDir()
	s1 := openStore(t, dir)
	m1 := NewManager(Config{Store: s1})
	comp := m1.InternDB(mustParse(t, texts[0]))
	if other := Compile(texts[1], mustParse(t, texts[1])); other.Raw != comp.Raw {
		t.Fatal("the two texts no longer share a fingerprint; the test needs a new pair")
	}
	req := Request{Sem: "DSM", Kind: KindLiteral, Lit: logic.NegLit(litFor(t, comp, "b").Atom())}
	m1.Remember(comp, req, true, true)
	s1.Close()

	s2 := openStore(t, dir)
	defer s2.Close()
	m2 := NewManager(Config{Store: s2})
	for i, text := range texts {
		c := m2.InternDB(mustParse(t, text))
		r := req
		r.Lit = logic.NegLit(litFor(t, c, "b").Atom())
		if _, hit := m2.Recall(c, r); hit != (i == 0) {
			t.Fatalf("%q: memo hit %v, want %v", text, hit, i == 0)
		}
	}
}

// TestMemoChargedToArtifact: memo entries count against the artifact
// budget, so a memo that outgrows it evicts the least recently used
// artifact, memo and all.
func TestMemoChargedToArtifact(t *testing.T) {
	older := mustParse(t, "x | y.")
	newer := mustParse(t, "a | b. b | c.")
	budget := Compile(older.String(), older).Bytes + Compile(newer.String(), newer).Bytes + 64
	m := NewManager(Config{MaxBytes: budget})
	oldComp := m.InternDB(older)
	comp := m.InternDB(newer)
	before := m.Stats().CompiledBytes
	m.Remember(comp, Request{Sem: "DSM", Kind: KindFormula, QueryText: "a & b"}, false, false)
	if got := m.Stats().CompiledBytes; got <= before {
		t.Fatalf("compiled bytes %d after a formula entry, %d before", got, before)
	}
	for i := 0; m.Stats().CompiledEvictions == 0 && i < 16; i++ {
		m.Remember(comp, Request{Sem: "DSM", Kind: KindFormula, QueryText: "a | " + string(rune('c'+i))}, true, false)
	}
	if _, ok := m.Lookup(older.String()); ok || oldComp.memo.Load() != nil {
		t.Fatal("the older artifact survived a memo past the budget")
	}
	if holds, ok := m.Recall(comp, Request{Sem: "DSM", Kind: KindFormula, QueryText: "a & b"}); !ok || holds {
		t.Fatalf("recall = %v/%v, want false/true", holds, ok)
	}
}
