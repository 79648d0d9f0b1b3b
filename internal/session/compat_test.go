package session_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/logic"
	"disjunct/internal/oracle"
	"disjunct/internal/session"
	"disjunct/internal/store"
)

// testdata/parent holds a store log and a handoff envelope written by
// the code before verdict records carried a text digest: GCWA, EGCWA
// and CIRC literal and model-existence queries on the texts below,
// asked through a store-backed manager and a storeless one whose
// Export was saved. That code recorded a model verdict only where it
// cost a solver call, so only the last text, which has a denial,
// carries them.
var parentTexts = []string{"a | b. c :- a. c :- b.\n", "p | q. q | r. s :- p.\n", "a | b. :- a, b. c :- a.\n"}

// replayParentQueries asks every recorded query and checks its verdict
// against a direct library call. Recorded model verdicts answer from
// the memo at zero oracle cost; literal records without a digest are
// not trusted (another text with the same fingerprint may number its
// atoms differently), so each literal is solved once and its repeat
// answers from the memo.
func replayParentQueries(t *testing.T, m *session.Manager) {
	t.Helper()
	ctx := context.Background()
	for _, text := range parentTexts {
		d, err := db.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		comp, ok := m.Lookup(text)
		if !ok {
			t.Fatalf("%q not cached", text)
		}
		for _, sem := range []string{"GCWA", "EGCWA", "CIRC"} {
			fresh, _ := core.New(sem, core.Options{Oracle: oracle.NewNP()})
			for a := 0; a < d.N(); a++ {
				for _, pos := range []bool{true, false} {
					lit := logic.MkLit(logic.Atom(a), pos)
					req := session.Request{Sem: sem, Kind: session.KindLiteral, Lit: lit, QueryText: d.Voc.LitString(lit)}
					want, err := fresh.InferLiteral(d, lit)
					if err != nil {
						t.Fatal(err)
					}
					for i, path := range []string{"session", "memo"} {
						res, handled := m.Query(ctx, comp, req)
						if !handled || res.Err != nil || res.Path != path || res.Holds != want {
							t.Fatalf("%s ⊨ %s on %q, ask %d: %+v handled=%v, want path %s holds %v", sem, d.Voc.LitString(lit), text, i, res, handled, path, want)
						}
					}
				}
			}
			want, err := fresh.HasModel(d)
			if err != nil {
				t.Fatal(err)
			}
			res, handled := m.Query(ctx, comp, session.Request{Sem: sem, Kind: session.KindModel})
			if !handled || res.Err != nil || res.Holds != want {
				t.Fatalf("%s model existence on %q: %+v handled=%v, want %v", sem, text, res, handled, want)
			}
			if comp.HasIC && (res.Path != "memo" || res.Counters != (oracle.Counters{})) {
				t.Fatalf("%s model existence on %q: %+v, want the recorded verdict from the memo", sem, text, res)
			}
		}
	}
}

// TestUndigestedLiteralRecordIsDropped: "a. b | c." and "b. a | c."
// share one fingerprint, but GCWA infers a from the first only. A
// digest-less record "literal|a holds" written for the first must not
// answer for the second, where a is the atom inside the disjunction.
func TestUndigestedLiteralRecordIsDropped(t *testing.T) {
	const mine, other = "b. a | c.\n", "a. b | c.\n"
	dm, _ := db.Parse(mine)
	do, _ := db.Parse(other)
	raw := session.Compile(mine, dm).Raw
	if session.Compile(other, do).Raw != raw {
		t.Fatal("texts do not share a fingerprint")
	}
	m := session.NewManager(session.Config{})
	h := session.Handoff{
		Artifacts: []session.HandoffArtifact{{Text: mine, Raw: raw}},
		Verdicts:  []session.HandoffVerdict{{Raw: raw, Sem: "GCWA", MemoKey: "literal|a", Holds: true}},
	}
	if arts, verds := m.Import(h); arts != 1 || verds != 0 {
		t.Fatalf("imported %d artifacts and %d verdicts, want 1 and 0", arts, verds)
	}
	comp, ok := m.Lookup(mine)
	if !ok {
		t.Fatal("artifact not cached")
	}
	a, _ := dm.Voc.Lookup("a")
	res, handled := m.Query(context.Background(), comp, session.Request{Sem: "GCWA", Kind: session.KindLiteral, Lit: logic.PosLit(a), QueryText: "a"})
	if !handled || res.Path == "memo" || res.Holds {
		t.Fatalf("GCWA ⊨ a on %q: %+v handled=%v, want a solved false", mine, res, handled)
	}
}

// TestParentStoreLogSeedsMemo: a store log written before digests
// existed prewarms every artifact, and its model verdicts replay from
// the memo at zero NP calls.
func TestParentStoreLogSeedsMemo(t *testing.T) {
	log, err := os.ReadFile(filepath.Join("testdata", "parent", "store.log"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "store.log"), log, 0o644); err != nil {
		t.Fatal(err)
	}
	st, rec, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if rec.TornTail || rec.Artifacts != len(parentTexts) || rec.Verdicts == 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	m := session.NewManager(session.Config{Store: st})
	if n, err := m.Prewarm(); err != nil || n != len(parentTexts) {
		t.Fatalf("Prewarm loaded %d (err %v)", n, err)
	}
	replayParentQueries(t, m)
	if s := m.Stats(); s.ColdCompiles != 0 || s.StoreVerdictSeeds == 0 {
		t.Fatalf("stats %+v", s)
	}
}

// TestParentHandoffEnvelopeSeedsMemo: an envelope exported before
// digests existed imports every artifact and its model verdicts into
// the memo, and those replay at zero NP calls.
func TestParentHandoffEnvelopeSeedsMemo(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "parent", "handoff.json"))
	if err != nil {
		t.Fatal(err)
	}
	var h session.Handoff
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatal(err)
	}
	m := session.NewManager(session.Config{})
	models := 0
	for _, v := range h.Verdicts {
		if strings.HasPrefix(v.MemoKey, "model|") {
			models++
		}
	}
	arts, verds := m.Import(h)
	if arts != len(parentTexts) || models == 0 || verds != models {
		t.Fatalf("imported %d/%d artifacts and %d/%d verdicts", arts, len(h.Artifacts), verds, len(h.Verdicts))
	}
	replayParentQueries(t, m)
}
