package store

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreRecover feeds arbitrary bytes to the log loader and asserts
// the recovery invariants: Open never errors on content damage, never
// serves an entry that differs from the seeded originals (CRC-bound
// prefix property), and always leaves a log that reopens cleanly —
// i.e. recovery output is a fixed point of recovery.
func FuzzStoreRecover(f *testing.F) {
	// Seed with a healthy log, its prefixes, and single-byte flips so
	// the corpus starts in the interesting region of the format.
	seedDir := f.TempDir()
	{
		s, _, err := Open(Config{Dir: seedDir})
		if err != nil {
			f.Fatal(err)
		}
		s.PutArtifact(Artifact{Text: "a | b.\n", Frag: 2})
		s.PutVerdict(Verdict{Raw: "R1", Sem: "GCWA", MemoKey: "literal|a", Holds: true})
		if err := s.Close(); err != nil {
			f.Fatal(err)
		}
	}
	healthy, err := os.ReadFile(filepath.Join(seedDir, logName))
	if err != nil {
		f.Fatal(err)
	}
	// Legacy intern and cost records keep the skip path in the corpus,
	// and an artifact record with a non-empty legacy key the discard
	// path.
	healthy = append(healthy, legacyInternRecord("CK1", true, "RAW1", []byte{1, 2, 3})...)
	healthy = append(healthy, legacyCostRecord("R1", "GCWA", 3, 12, 40, 900)...)
	healthy = append(healthy, keyedArtifactRecord("a | b.\n", "K1", 2)...)
	f.Add(healthy)
	f.Add(healthy[:len(healthy)/2])
	f.Add([]byte{})
	f.Add([]byte(magic))
	for _, off := range []int{0, len(magic), len(magic) + 1, len(healthy) - 1} {
		if off >= 0 && off < len(healthy) {
			mut := append([]byte(nil), healthy...)
			mut[off] ^= 0x01
			f.Add(mut)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
			t.Skip()
		}
		s, rec, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("Open failed on damaged log: %v", err)
		}
		// Entries the loader accepted must match the only records ever
		// written with valid checksums (assuming no CRC collision in
		// the mutated corpus, which the fuzzer would surface as a
		// mismatch here).
		for _, a := range s.Artifacts() {
			if a != (Artifact{Text: "a | b.\n", Frag: 2}) {
				t.Fatalf("corrupt artifact served: %+v", a)
			}
		}
		for k, v := range s.Verdicts("R1", "GCWA") {
			if k != "literal|a" || v != true {
				t.Fatalf("corrupt verdict served: %q=%v", k, v)
			}
		}
		total := rec.Artifacts + rec.Verdicts
		// Store stays writable after recovery.
		s.PutArtifact(Artifact{Text: "fresh."})
		s.Flush()
		if err := s.Close(); err != nil {
			t.Fatalf("Close after recovery: %v", err)
		}
		// Recovery must be a fixed point: the repaired log reopens with
		// zero further damage and everything it loaded the first time.
		s2, rec2, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("reopen of repaired log: %v", err)
		}
		defer s2.Close()
		if rec2.TornTail {
			t.Fatalf("repaired log still torn on reopen: %+v", rec2)
		}
		if got := rec2.Artifacts + rec2.Verdicts; got != total+1 {
			t.Fatalf("repaired log lost entries: first load %d+fresh, reopen %d", total, got)
		}
		if _, ok := s2.Artifact("fresh."); !ok {
			t.Fatal("post-recovery write lost on reopen")
		}
	})
}
