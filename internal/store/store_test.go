package store

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func openT(t *testing.T, dir string) (*Store, Recovery) {
	t.Helper()
	s, rec, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, rec
}

func seedStore(t *testing.T, dir string) {
	t.Helper()
	s, rec := openT(t, dir)
	if rec.TornTail || rec.Artifacts != 0 || rec.Verdicts != 0 {
		t.Fatalf("fresh store reported recovery %+v", rec)
	}
	s.PutArtifact(Artifact{Text: "a | b.\n", Frag: 2})
	s.PutArtifact(Artifact{Text: "p. q :- p.\n", Frag: 1})
	s.PutVerdict(Verdict{Raw: "R1", Sem: "GCWA", MemoKey: "literal|a", Holds: true})
	s.PutVerdict(Verdict{Raw: "R1", Sem: "GCWA", MemoKey: "literal|b", Holds: false})
	s.PutVerdict(Verdict{Raw: "R2", Sem: "CIRC", MemoKey: "formula|a & b", Holds: true})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func checkSeeded(t *testing.T, s *Store) {
	t.Helper()
	a, ok := s.Artifact("a | b.\n")
	if !ok || a.Frag != 2 {
		t.Fatalf("artifact 1 = %+v ok=%v", a, ok)
	}
	if a, ok := s.Artifact("p. q :- p.\n"); !ok || a.Frag != 1 {
		t.Fatalf("artifact 2 = %+v ok=%v", a, ok)
	}
	m := s.Verdicts("R1", "GCWA")
	if len(m) != 2 || m["literal|a"] != true || m["literal|b"] != false {
		t.Fatalf("verdicts R1/GCWA = %v", m)
	}
	if m := s.Verdicts("R2", "CIRC"); len(m) != 1 || !m["formula|a & b"] {
		t.Fatalf("verdicts R2/CIRC = %v", m)
	}
	if m := s.Verdicts("R1", "CCWA"); m != nil {
		t.Fatalf("unexpected verdicts for unknown sem: %v", m)
	}
}

// rawRecord frames a payload as one CRC-checked log record.
func rawRecord(typ byte, payload []byte) []byte {
	b := []byte{typ}
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// keyedArtifactRecord hand-encodes a type-1 artifact record with an
// explicit key field: text, key, frag. Logs written while artifacts
// carried a canonical class key hold a non-empty key here; current
// writers put an empty one.
func keyedArtifactRecord(text, key string, frag byte) []byte {
	p := binary.AppendUvarint(nil, uint64(len(text)))
	p = append(p, text...)
	p = binary.AppendUvarint(p, uint64(len(key)))
	p = append(p, key...)
	return rawRecord(recArtifact, append(p, frag))
}

// legacyInternRecord hand-encodes a type-3 record exactly as stores
// that still persisted oracle verdict-cache entries wrote it: the
// canonical key, the SAT bit, the raw query fingerprint, and an
// optional witness model (presence byte, then length-prefixed bytes).
func legacyInternRecord(key string, sat bool, raw string, model []byte) []byte {
	str := func(b []byte, s string) []byte {
		return append(binary.AppendUvarint(b, uint64(len(s))), s...)
	}
	p := str(nil, key)
	if sat {
		p = append(p, 1)
	} else {
		p = append(p, 0)
	}
	p = str(p, raw)
	if model == nil {
		p = append(p, 0)
	} else {
		p = append(p, 1)
		p = str(p, string(model))
	}
	return rawRecord(recLegacyIntern, p)
}

// TestLegacyInternRecordsSkipped: a log written before the verdict
// cache was removed interleaves type-3 intern records with the live
// record types. Recovery must skip them without treating them as a
// torn tail — every later record survives — and compaction must drop
// them from the rewritten log.
func TestLegacyInternRecordsSkipped(t *testing.T) {
	var ver, est encoder
	ver.str("R1")
	ver.str("GCWA")
	ver.str("literal|a")
	ver.bool(true)
	est.str("R1")
	est.str("GCWA")
	for _, v := range []uint64{3, 12, 40, 900} {
		est.u64(v)
	}
	log := []byte(magic)
	log = append(log, legacyInternRecord("CK0", false, "RAW0", nil)...)
	log = append(log, keyedArtifactRecord("a | b.\n", "K1", 2)...)
	log = append(log, legacyInternRecord("CK1", true, "RAW1", []byte{3, 1, 0, 2})...)
	log = append(log, rawRecord(recVerdict, ver.b)...)
	log = append(log, legacyInternRecord("CK2", false, "RAW2", nil)...)
	log = append(log, rawRecord(recEstimate, est.b)...)

	dir := t.TempDir()
	path := filepath.Join(dir, logName)
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	s, rec, err := Open(Config{Dir: dir, MaxBytes: int64(len(log)) - 1})
	if err != nil {
		t.Fatal(err)
	}
	if rec.TornTail || rec.Dropped != 0 {
		t.Fatalf("legacy intern records treated as a torn tail: %+v", rec)
	}
	if rec.Artifacts != 1 || rec.Verdicts != 1 || rec.Estimates != 1 {
		t.Fatalf("recovery counts = %+v, want 1 artifact, 1 verdict, 1 estimate", rec)
	}
	check := func(s *Store) {
		t.Helper()
		if a, ok := s.Artifact("a | b.\n"); !ok || a.Frag != 2 {
			t.Fatalf("artifact = %+v ok=%v", a, ok)
		}
		if m := s.Verdicts("R1", "GCWA"); len(m) != 1 || !m["literal|a"] {
			t.Fatalf("verdicts = %v", m)
		}
		want := Estimate{Raw: "R1", Sem: "GCWA", Count: 3, SumNP: 12, SumConfl: 40, SumMicros: 900}
		if e, ok := s.EstimateFor("R1", "GCWA"); !ok || e != want {
			t.Fatalf("estimate = %+v ok=%v", e, ok)
		}
	}
	check(s)

	// The log is over its budget, so a flush compacts it.
	s.Flush()
	if st := s.Stats(); st.Compactions != 1 {
		t.Fatalf("compactions = %d, want 1", st.Compactions)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	records := 0
	for off := len(magic); off < len(data); records++ {
		n, typ, _ := parseRecord(data[off:])
		if n <= 0 {
			t.Fatalf("compacted log unreadable at offset %d", off)
		}
		if typ == recLegacyIntern {
			t.Fatal("compaction kept a legacy intern record")
		}
		off += n
	}
	if records != 3 {
		t.Fatalf("compacted log holds %d records, want 3", records)
	}
	s2, rec2 := openT(t, dir)
	defer s2.Close()
	if rec2.TornTail {
		t.Fatalf("compacted log reported torn tail: %+v", rec2)
	}
	check(s2)
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir)
	s, rec := openT(t, dir)
	defer s.Close()
	if rec.TornTail || rec.Dropped != 0 {
		t.Fatalf("clean reopen reported torn tail: %+v", rec)
	}
	if rec.Artifacts != 2 || rec.Verdicts != 3 {
		t.Fatalf("recovery counts = %+v", rec)
	}
	checkSeeded(t, s)
}

// TestKeyedArtifactLogReopens: a log whose artifact records carry a
// non-empty legacy key reopens with every artifact and verdict, the
// key discarded, and survives a compaction rewrite. Records written
// now are the same layout with an empty key, so older readers decode
// them too.
func TestKeyedArtifactLogReopens(t *testing.T) {
	var ver encoder
	ver.str("R1")
	ver.str("GCWA")
	ver.str("literal|a")
	ver.bool(true)
	log := []byte(magic)
	log = append(log, keyedArtifactRecord("a | b.\n", "K1", 2)...)
	log = append(log, rawRecord(recVerdict, ver.b)...)
	log = append(log, keyedArtifactRecord("p. q :- p.\n", "\x02\x01\x00", 1)...)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName), log, 0o644); err != nil {
		t.Fatal(err)
	}
	s, rec, err := Open(Config{Dir: dir, MaxBytes: int64(len(log)) - 1})
	if err != nil {
		t.Fatal(err)
	}
	if rec.TornTail || rec.Dropped != 0 || rec.Artifacts != 2 || rec.Verdicts != 1 {
		t.Fatalf("recovery = %+v, want 2 artifacts and 1 verdict, nothing dropped", rec)
	}
	check := func(s *Store) {
		t.Helper()
		if a, ok := s.Artifact("a | b.\n"); !ok || a != (Artifact{Text: "a | b.\n", Frag: 2}) {
			t.Fatalf("artifact 1 = %+v ok=%v", a, ok)
		}
		if a, ok := s.Artifact("p. q :- p.\n"); !ok || a != (Artifact{Text: "p. q :- p.\n", Frag: 1}) {
			t.Fatalf("artifact 2 = %+v ok=%v", a, ok)
		}
		if m := s.Verdicts("R1", "GCWA"); !m["literal|a"] {
			t.Fatalf("verdicts = %v", m)
		}
	}
	check(s)
	s.PutVerdict(Verdict{Raw: "R1", Sem: "GCWA", MemoKey: "literal|b", Holds: false})
	s.Flush()
	if st := s.Stats(); st.Compactions == 0 {
		t.Fatalf("no compaction of an over-budget log: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rec2 := openT(t, dir)
	defer s2.Close()
	if rec2.TornTail || rec2.Artifacts != 2 || rec2.Verdicts != 2 {
		t.Fatalf("reopen after compaction = %+v", rec2)
	}
	check(s2)

	// A fresh write is the keyed layout with an empty key.
	d2 := t.TempDir()
	s3, _ := openT(t, d2)
	s3.PutArtifact(Artifact{Text: "a | b.\n", Frag: 2})
	if err := s3.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(d2, logName))
	if err != nil {
		t.Fatal(err)
	}
	if want := append([]byte(magic), keyedArtifactRecord("a | b.\n", "", 2)...); string(got) != string(want) {
		t.Fatalf("artifact record = %q, want %q", got, want)
	}
}

func TestLaterRecordWins(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	s.PutArtifact(Artifact{Text: "a.", Frag: 1})
	s.PutArtifact(Artifact{Text: "a.", Frag: 3})
	s.PutVerdict(Verdict{Raw: "R", Sem: "GCWA", MemoKey: "q", Holds: false})
	s.PutVerdict(Verdict{Raw: "R", Sem: "GCWA", MemoKey: "q", Holds: true})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _ := openT(t, dir)
	defer s2.Close()
	if a, _ := s2.Artifact("a."); a.Frag != 3 {
		t.Fatalf("artifact after reload = %+v (want later record)", a)
	}
	if m := s2.Verdicts("R", "GCWA"); !m["q"] {
		t.Fatalf("verdict after reload = %v (want later record)", m)
	}
}

func TestDedupIdenticalPuts(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	defer s.Close()
	for i := 0; i < 100; i++ {
		s.PutArtifact(Artifact{Text: "a."})
		s.PutVerdict(Verdict{Raw: "R", Sem: "GCWA", MemoKey: "q", Holds: true})
	}
	st := s.Stats()
	if st.QueuedWrites != 2 {
		t.Fatalf("identical puts queued %d writes, want 2", st.QueuedWrites)
	}
}

// TestTruncateEveryOffset cuts a healthy log at every byte length and
// asserts the loader always recovers: never errors, never reports an
// entry that wasn't fully written, and keeps a valid prefix (entry
// counts monotonically non-decreasing in the cut point).
func TestTruncateEveryOffset(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir)
	data, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	full := len(data)
	prevTotal := -1
	for cut := 0; cut <= full; cut++ {
		d2 := t.TempDir()
		if err := os.WriteFile(filepath.Join(d2, logName), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, rec, err := Open(Config{Dir: d2})
		if err != nil {
			t.Fatalf("cut=%d: Open error: %v", cut, err)
		}
		total := rec.Artifacts + rec.Verdicts
		if cut < full && !rec.TornTail && total != 5 && cut > len(magic) {
			// A cut strictly inside a record must be reported torn
			// unless it landed exactly on a record boundary.
			if rec.Dropped != 0 {
				t.Fatalf("cut=%d: dropped %d but no torn flag", cut, rec.Dropped)
			}
		}
		if cut == full && (rec.TornTail || total != 5) {
			t.Fatalf("uncut log reported %+v", rec)
		}
		// Each loaded artifact must be one we actually wrote.
		for _, a := range s.Artifacts() {
			if !(a == Artifact{Text: "a | b.\n", Frag: 2} || a == Artifact{Text: "p. q :- p.\n", Frag: 1}) {
				t.Fatalf("cut=%d: corrupt artifact served: %+v", cut, a)
			}
		}
		if total < prevTotal && cut > 0 {
			// Longer prefixes can only reveal more records.
			t.Fatalf("cut=%d: recovered %d entries, previous cut recovered %d", cut, total, prevTotal)
		}
		prevTotal = total
		// The store must be writable after recovery: dropped entries
		// are re-derived and re-persisted by the caller.
		s.PutArtifact(Artifact{Text: "re."})
		s.Flush()
		if err := s.Close(); err != nil {
			t.Fatalf("cut=%d: Close: %v", cut, err)
		}
		s2, _, err := Open(Config{Dir: d2})
		if err != nil {
			t.Fatalf("cut=%d: reopen after repair: %v", cut, err)
		}
		if _, ok := s2.Artifact("re."); !ok {
			t.Fatalf("cut=%d: re-derived entry lost on reopen", cut)
		}
		s2.Close()
	}
}

// TestCorruptEveryOffset flips a byte at every offset of a healthy log
// and asserts the loader never serves a record that differs from what
// was written: every surviving entry is byte-identical to an original.
func TestCorruptEveryOffset(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir)
	data, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	wantVerdicts := map[string]map[string]bool{
		"R1\x00GCWA": {"literal|a": true, "literal|b": false},
		"R2\x00CIRC": {"formula|a & b": true},
	}
	for off := 0; off < len(data); off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0xFF
		d2 := t.TempDir()
		if err := os.WriteFile(filepath.Join(d2, logName), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		s, _, err := Open(Config{Dir: d2})
		if err != nil {
			t.Fatalf("off=%d: Open error: %v", off, err)
		}
		for _, a := range s.Artifacts() {
			if !(a == Artifact{Text: "a | b.\n", Frag: 2} ||
				a == Artifact{Text: "p. q :- p.\n", Frag: 1}) {
				t.Fatalf("off=%d: corrupt artifact served: %+v", off, a)
			}
		}
		for raw, sem := range map[string]string{"R1": "GCWA", "R2": "CIRC"} {
			for k, v := range s.Verdicts(raw, sem) {
				if want, ok := wantVerdicts[raw+"\x00"+sem][k]; !ok || want != v {
					t.Fatalf("off=%d: corrupt verdict served: %s/%s %q=%v", off, raw, sem, k, v)
				}
			}
		}
		s.Close()
	}
}

func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(Config{Dir: dir, MaxBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the same keys with alternating values: the live set stays
	// tiny while the log grows past budget, forcing compaction.
	for i := 0; i < 2000; i++ {
		s.PutVerdict(Verdict{Raw: "R", Sem: "GCWA", MemoKey: "q", Holds: i%2 == 0})
		s.PutArtifact(Artifact{Text: "a.", Frag: uint8(i % 2)})
	}
	s.Flush()
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction after %d bytes of churn (size=%d)", 4000*20, st.SizeBytes)
	}
	if st.SizeBytes > 2048 {
		t.Fatalf("post-compaction size %d over budget", st.SizeBytes)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rec := openT(t, dir)
	defer s2.Close()
	if rec.TornTail {
		t.Fatalf("compacted log reported torn tail: %+v", rec)
	}
	if a, ok := s2.Artifact("a."); !ok || a.Frag != 1 {
		t.Fatalf("artifact after compaction = %+v ok=%v (want last write)", a, ok)
	}
	if m := s2.Verdicts("R", "GCWA"); len(m) != 1 || m["q"] != false {
		t.Fatalf("verdicts after compaction = %v (want last write)", m)
	}
}

func TestCompactionTmpLeftoverIgnored(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir)
	// A crash mid-compaction leaves a temp file; the old log wins.
	if err := os.WriteFile(filepath.Join(dir, tmpName), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, rec := openT(t, dir)
	defer s.Close()
	if rec.TornTail {
		t.Fatalf("leftover tmp corrupted recovery: %+v", rec)
	}
	checkSeeded(t, s)
	if _, err := os.Stat(filepath.Join(dir, tmpName)); !os.IsNotExist(err) {
		t.Fatalf("leftover tmp not removed: %v", err)
	}
}

func TestCloseStopsFlusherAndDropsLatePuts(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	if st := s.Stats(); !st.FlusherRunning {
		t.Fatal("flusher not running after Open")
	}
	s.PutArtifact(Artifact{Text: "a."})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.FlusherRunning {
		t.Fatal("flusher still reported running after Close")
	}
	// Late write-behind from an in-flight request: dropped silently.
	s.PutVerdict(Verdict{Raw: "R", Sem: "GCWA", MemoKey: "late", Holds: true})
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	s2, rec := openT(t, dir)
	defer s2.Close()
	if rec.Artifacts != 1 || rec.Verdicts != 0 {
		t.Fatalf("recovery after close = %+v (pre-close put must persist, late put must not)", rec)
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, _, err := Open(Config{}); err == nil {
		t.Fatal("Open with empty Dir succeeded")
	}
}

func TestForeignFileStartsFresh(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName), []byte("not a store log at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, rec, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("Open over foreign file: %v", err)
	}
	defer s.Close()
	if !rec.TornTail || rec.Dropped == 0 {
		t.Fatalf("foreign file not reported as dropped: %+v", rec)
	}
	if rec.Artifacts+rec.Verdicts != 0 {
		t.Fatalf("foreign file yielded entries: %+v", rec)
	}
	s.PutArtifact(Artifact{Text: "a."})
	s.Flush()
}

func TestConcurrentPuts(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				s.PutVerdict(Verdict{Raw: "R", Sem: "GCWA", MemoKey: string(rune('a'+g)) + "x", Holds: i%2 == 0})
				s.PutArtifact(Artifact{Text: "t" + string(rune('a'+g))})
				s.Verdicts("R", "GCWA")
				s.Stats()
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rec := openT(t, dir)
	defer s2.Close()
	if rec.Artifacts != 8 {
		t.Fatalf("concurrent artifacts persisted = %d, want 8", rec.Artifacts)
	}
}

// TestAllVerdictsKeepsNULInRaw: a raw fingerprint holds NUL bytes
// (uvarint 0 is atom 0's positive literal), so AllVerdicts must split
// its index key at the semantics, not at the first NUL — the handoff
// export ships what it returns.
func TestAllVerdictsKeepsNULInRaw(t *testing.T) {
	s, _ := openT(t, t.TempDir())
	defer s.Close()
	want := Verdict{Raw: "\x02\x01\x02\x00\x02", Sem: "GCWA", MemoKey: "literal|-a", Holds: true}
	s.PutVerdict(want)
	got := s.AllVerdicts()
	if len(got) != 1 || got[0] != want {
		t.Fatalf("AllVerdicts = %+v, want [%+v]", got, want)
	}
}
