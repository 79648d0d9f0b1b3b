package session_test

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"disjunct/internal/db"
	"disjunct/internal/logic"
	"disjunct/internal/oracle"
	"disjunct/internal/session"
	"disjunct/internal/store"

	_ "disjunct/internal/semantics/all"
)

// warmQueries drives a few warm-eligible GCWA literal queries so the
// manager has artifacts and memoized verdicts to export.
func warmQueries(t testing.TB, m *session.Manager, texts []string) map[string]bool {
	t.Helper()
	verdicts := map[string]bool{}
	for _, text := range texts {
		d, err := db.Parse(text)
		if err != nil {
			t.Fatalf("parse %q: %v", text, err)
		}
		m.Intern(text, d)
		comp := m.Intern(text, d) // the second sighting caches it, memo and all
		for a := 0; a < d.N(); a++ {
			lit := logic.MkLit(logic.Atom(a), false) // negative literal: warm path under GCWA
			q := session.Request{
				Sem: "GCWA", Kind: session.KindLiteral,
				Lit: lit, QueryText: d.Voc.LitString(lit),
			}
			res, handled := m.Query(context.Background(), comp, q)
			if !handled || res.Err != nil {
				continue
			}
			verdicts[text+"|"+q.QueryText] = res.Holds
		}
	}
	if len(verdicts) == 0 {
		t.Fatal("no warm verdicts produced; handoff test has nothing to move")
	}
	return verdicts
}

// TestHandoffRoundTrip exports a warmed manager and imports into a
// fresh one: the successor must answer every handed-off query from
// its seeded memo with zero NP calls and identical verdicts.
func TestHandoffRoundTrip(t *testing.T) {
	texts := []string{"a | b. b | c.", "p | q. q.", "x | y. y | z. z."}
	src := session.NewManager(session.Config{})
	want := warmQueries(t, src, texts)

	h := src.Export()
	if len(h.Artifacts) != len(texts) {
		t.Fatalf("exported %d artifacts, want %d", len(h.Artifacts), len(texts))
	}
	if len(h.Verdicts) == 0 {
		t.Fatal("exported zero verdicts from a warmed manager")
	}

	dst := session.NewManager(session.Config{})
	arts, verds := dst.Import(h)
	if arts != len(texts) {
		t.Fatalf("imported %d artifacts, want %d", arts, len(texts))
	}
	if verds != len(h.Verdicts) {
		t.Fatalf("imported %d verdicts, want %d", verds, len(h.Verdicts))
	}

	// Replay every query on the successor: all answers must come from
	// the seeded memo (zero oracle counters) and agree.
	for _, text := range texts {
		d, _ := db.Parse(text)
		comp := dst.Intern(text, d)
		for a := 0; a < d.N(); a++ {
			lit := logic.MkLit(logic.Atom(a), false)
			q := session.Request{
				Sem: "GCWA", Kind: session.KindLiteral,
				Lit: lit, QueryText: d.Voc.LitString(lit),
			}
			key := text + "|" + q.QueryText
			wantHolds, known := want[key]
			if !known {
				continue
			}
			res, handled := dst.Query(context.Background(), comp, q)
			if !handled {
				t.Fatalf("successor did not handle %s", key)
			}
			if res.Err != nil {
				t.Fatalf("successor error on %s: %v", key, res.Err)
			}
			if res.Holds != wantHolds {
				t.Fatalf("handoff changed verdict on %s: %v -> %v", key, wantHolds, res.Holds)
			}
			if (res.Counters != oracle.Counters{}) {
				t.Fatalf("successor burned oracle calls on handed-off query %s: %+v", key, res.Counters)
			}
		}
	}
	if st := dst.Stats(); st.StoreVerdictSeeds == 0 {
		t.Fatalf("no verdicts seeded from the handoff: %+v", st)
	}
}

// TestHandoffImportWritesThroughStore checks that an import on a
// store-backed successor persists the received state: a third process
// opening the same store sees the artifacts and verdicts.
func TestHandoffImportWritesThroughStore(t *testing.T) {
	texts := []string{"a | b. b | c."}
	src := session.NewManager(session.Config{})
	warmQueries(t, src, texts)
	h := src.Export()

	dir := t.TempDir()
	st, _, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	dst := session.NewManager(session.Config{Store: st})
	arts, verds := dst.Import(h)
	if arts == 0 || verds == 0 {
		t.Fatalf("import accepted arts=%d verds=%d, want both > 0", arts, verds)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, _, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := len(st2.Artifacts()); got != len(h.Artifacts) {
		t.Fatalf("store after reopen has %d artifacts, want %d", got, len(h.Artifacts))
	}
	if got := len(st2.AllVerdicts()); got != len(h.Verdicts) {
		t.Fatalf("store after reopen has %d verdicts, want %d", got, len(h.Verdicts))
	}
}

// TestHandoffImportRejectsStaleArtifacts feeds an import a record whose
// fragment disagrees with what the text compiles to now: it must be
// skipped (re-derived on demand), never trusted.
func TestHandoffImportRejectsStaleArtifacts(t *testing.T) {
	text := "a | b."
	d, _ := db.Parse(text)
	comp := session.Compile(text, d)
	h := session.Handoff{Artifacts: []session.HandoffArtifact{{
		Text: text, Raw: comp.Raw, Frag: uint8(comp.Frag) + 1,
	}}}
	dst := session.NewManager(session.Config{})
	arts, _ := dst.Import(h)
	if arts != 0 {
		t.Fatalf("stale artifact accepted: %d", arts)
	}
	h2 := session.Handoff{Artifacts: []session.HandoffArtifact{
		{Text: "not ( parseable", Raw: "junk", Frag: 0},
		// Accepted before "not" became a keyword; now it does not parse.
		{Text: "not | a.", Raw: session.RawKey(2, logic.CNF{{0, 2}}), Frag: uint8(session.FragGeneral)},
	}}
	if arts, _ := dst.Import(h2); arts != 0 {
		t.Fatalf("unparseable artifact accepted: %d", arts)
	}
}

// ringText is the n-atom ring "a0 | a1. a1 | a2. … a(n-1) | a0.".
func ringText(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "a%d | a%d. ", i, (i+1)%n)
	}
	return b.String()
}

// TestHandoffJSONKeepsRawBytes: a RawKey is binary, and from 64 atoms
// on its varints carry bytes ≥ 0x80, which a plain JSON string field
// replaces with U+FFFD. After a JSON round trip every artifact and
// verdict keeps its exact key, and a fresh manager accepts every
// artifact and verdict. A reader that knows only "raw" still gets the
// exact key of a small database.
func TestHandoffJSONKeepsRawBytes(t *testing.T) {
	small := "a | b. b | c."
	texts := []string{ringText(70), small}
	src := session.NewManager(session.Config{})
	warmQueries(t, src, texts)
	h := src.Export()
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var got session.Handoff
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, h) {
		t.Fatal("the JSON round trip changed the envelope")
	}
	arts, verds := session.NewManager(session.Config{}).Import(got)
	if arts != len(texts) || verds != len(h.Verdicts) {
		t.Fatalf("imported %d/%d artifacts and %d/%d verdicts", arts, len(texts), verds, len(h.Verdicts))
	}

	var old legacyEnvelope
	if err := json.Unmarshal(data, &old); err != nil {
		t.Fatal(err)
	}
	for i, a := range old.Artifacts {
		if a.Text == small && a.Raw != h.Artifacts[i].Raw {
			t.Fatalf("the plain raw member of %q lost its key", small)
		}
	}
}
