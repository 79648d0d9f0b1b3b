package session_test

import (
	"encoding/json"
	"testing"

	"disjunct/internal/db"
	"disjunct/internal/session"
)

// legacyEnvelope is the handoff wire format of peers whose artifacts
// still carried a canonical class key.
type legacyEnvelope struct {
	Artifacts []legacyArtifact         `json:"artifacts"`
	Verdicts  []session.HandoffVerdict `json:"verdicts"`
}

type legacyArtifact struct {
	Text string `json:"text"`
	Raw  string `json:"raw"`
	Key  string `json:"key"`
	Frag uint8  `json:"frag"`
}

// legacyJSON re-encodes h in the legacy format, with a non-empty key
// on every artifact.
func legacyJSON(t testing.TB, h session.Handoff) []byte {
	var env legacyEnvelope
	for _, a := range h.Artifacts {
		env.Artifacts = append(env.Artifacts, legacyArtifact{a.Text, a.Raw, "\x03\x02\x00legacy", a.Frag})
	}
	env.Verdicts = h.Verdicts
	b, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// costEnvelope is the handoff wire format of peers that still shipped
// the planner's cost estimates next to artifacts and verdicts.
type costEnvelope struct {
	Artifacts []session.HandoffArtifact `json:"artifacts"`
	Verdicts  []session.HandoffVerdict  `json:"verdicts"`
	Costs     []shippedCost             `json:"estimates,omitempty"`
}

type shippedCost struct {
	Raw       string `json:"raw"`
	Sem       string `json:"sem"`
	Count     int64  `json:"count"`
	SumNP     int64  `json:"sum_np"`
	SumConfl  int64  `json:"sum_confl"`
	SumMicros int64  `json:"sum_micros"`
	Raw64     []byte `json:"raw_b64,omitempty"`
}

// costJSON re-encodes h in that format, with one estimate per
// artifact.
func costJSON(t testing.TB, h session.Handoff) []byte {
	env := costEnvelope{Artifacts: h.Artifacts, Verdicts: h.Verdicts}
	for _, a := range h.Artifacts {
		env.Costs = append(env.Costs, shippedCost{a.Raw, "GCWA", 2, 6, 1, 40, []byte(a.Raw)})
	}
	b, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHandoffImportLegacyEnvelope: an envelope from a peer that still
// sends a "key" on every artifact, or an "estimates" member, imports
// every artifact and verdict.
func TestHandoffImportLegacyEnvelope(t *testing.T) {
	texts := []string{"a | b. b | c.", "p | q. q.", "x | y. y | z. z."}
	src := session.NewManager(session.Config{})
	warmQueries(t, src, texts)
	h := src.Export()

	for name, data := range map[string][]byte{"key": legacyJSON(t, h), "estimates": costJSON(t, h)} {
		var got session.Handoff
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("%s envelope: %v", name, err)
		}
		arts, verds := session.NewManager(session.Config{}).Import(got)
		if arts != len(texts) || verds != len(h.Verdicts) {
			t.Fatalf("%s envelope: imported %d artifacts and %d verdicts, want %d and %d", name, arts, verds, len(texts), len(h.Verdicts))
		}
	}
}

// jsonRoundTrip sends h through encoding/json, as a handoff travels.
func jsonRoundTrip(t testing.TB, h session.Handoff) session.Handoff {
	t.Helper()
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back session.Handoff
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	return back
}

// FuzzHandoffImport decodes arbitrary bytes as a handoff envelope and
// imports it into a fresh manager. Import must never panic, never
// accept more artifacts or verdicts than the envelope holds, and every
// artifact it caches must equal a fresh compile of its text. What the
// manager then exports must survive a JSON round trip: a second fresh
// manager accepts every artifact of it. The seed source holds a
// 70-atom ring, whose fingerprint carries bytes ≥ 0x80, and its own
// export round trip must import every artifact and verdict.
func FuzzHandoffImport(f *testing.F) {
	src := session.NewManager(session.Config{})
	warmQueries(f, src, []string{"a | b. b | c.", "p :- not q. q :- not p.", ringText(70)})
	h := src.Export()
	arts, verds := session.NewManager(session.Config{}).Import(jsonRoundTrip(f, h))
	if arts != len(h.Artifacts) || verds != len(h.Verdicts) {
		f.Fatalf("export round trip imported %d/%d artifacts and %d/%d verdicts", arts, len(h.Artifacts), verds, len(h.Verdicts))
	}
	cur, err := json.Marshal(h)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(cur)
	f.Add(legacyJSON(f, h))
	f.Add(costJSON(f, h))
	f.Add([]byte(`{"artifacts":[{"text":"a.","raw":"junk","frag":1}],"verdicts":[{"raw":"r","sem":"GCWA","memo_key":"q","holds":true}]}`))
	f.Add([]byte(`{"artifacts":[{"text":"not ( parseable"}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var h session.Handoff
		if json.Unmarshal(data, &h) != nil {
			return
		}
		m := session.NewManager(session.Config{})
		arts, verds := m.Import(h)
		if arts < 0 || arts > len(h.Artifacts) || verds < 0 || verds > len(h.Verdicts) {
			t.Fatalf("Import accepted %d/%d artifacts and %d/%d verdicts", arts, len(h.Artifacts), verds, len(h.Verdicts))
		}
		cached := 0
		for _, a := range h.Artifacts {
			got, ok := m.Lookup(a.Text)
			if !ok {
				continue
			}
			cached++
			d, err := db.Parse(a.Text)
			if err != nil {
				t.Fatalf("unparseable text %q cached", a.Text)
			}
			if want := session.Compile(a.Text, d); got.Raw != want.Raw || got.Frag != want.Frag {
				t.Fatalf("cached artifact for %q differs from a fresh compile", a.Text)
			}
		}
		if cached > arts {
			t.Fatalf("%d artifacts cached, Import reported %d", cached, arts)
		}
		re := m.Export()
		if got, _ := session.NewManager(session.Config{}).Import(jsonRoundTrip(t, re)); got != len(re.Artifacts) {
			t.Fatalf("re-export round trip imported %d of %d artifacts", got, len(re.Artifacts))
		}
	})
}
