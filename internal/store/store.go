// Package store is the crash-safe, disk-backed tier beneath the
// in-memory caches: it persists compiled-database artifacts (the
// database texts the session layer compiled, with their fragments),
// completed warm-session verdict memos and the planner's cost
// estimates, so a restarted process pre-warms from disk instead of
// recompiling and re-solving — every deploy becomes an artifact load
// rather than a cold-start stampede.
//
// # Format and atomicity
//
// The store is one append-only log file (store.log) of length-prefixed,
// CRC-checksummed records behind a fixed magic header:
//
//	header:  "DDBSTOR1\n"
//	record:  [type byte][uvarint payload length][crc32(payload) LE][payload]
//
// Appends are write-behind: Put* enqueues, a single flusher goroutine
// batches queued records into one write+fsync. A crash can therefore
// lose recently queued records (they are re-derived on demand — the
// caches the store backs are pure memoisation) but can never corrupt
// the readable prefix: Open scans the log record by record and
// truncates at the first invalid one (short length, bad CRC, malformed
// payload), so a torn tail from a mid-write crash is dropped, never
// served. Within one record, the CRC binds the payload; a record that
// round-trips the checksum but fails structural decoding is treated as
// the torn tail too.
//
// When the log exceeds its byte budget the flusher compacts: the live
// in-memory index is rewritten to a temp file in the same directory and
// atomically renamed over the log (temp-file + rename, fsynced), so a
// crash mid-compaction leaves either the old log or the new one,
// never a blend.
//
// # Keys
//
// Artifacts are keyed by exact database text; the payload carries the
// fragment classification, which a reload cross-checks against a fresh
// compile of the text.
// Verdict memos are keyed by the session key (the exact CNF
// fingerprint Raw, the semantics name, and the memo key): equal Raw
// means the indexed CNF is byte-identical, so verdicts transfer
// between processes verbatim.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

const (
	logName  = "store.log"
	tmpName  = "store.log.tmp"
	magic    = "DDBSTOR1\n"
	maxValue = 1 << 26 // sanity bound on one record's payload (64 MiB)
)

// Record type tags. New types append; unknown tags invalidate the
// record (they are indistinguishable from corruption to an old reader,
// and dropping the tail re-derives at worst). Tag 3 held the entries
// of a since-removed oracle verdict cache: logs written before its
// removal may still carry them, so recovery accepts and skips them
// (rejecting them would truncate every later record as a torn tail),
// and compaction drops them.
const (
	recArtifact     byte = 1
	recVerdict      byte = 2
	recLegacyIntern byte = 3
	recEstimate     byte = 4
)

// Artifact is one persisted compiled-database artifact: the exact
// database text plus its fragment classification. Everything in a
// session.Compiled (grounding, fingerprint, fragment, fixpoint models)
// is re-derived polynomially from Text on load.
type Artifact struct {
	Text string // exact database text (the compile-cache key)
	Frag uint8  // fragment classification recorded for cross-checking
}

// Verdict is one persisted completed warm-session verdict.
type Verdict struct {
	Raw     string // exact CNF fingerprint of the database (session key)
	Sem     string // semantics name
	MemoKey string // kind-qualified query text (the memo map key)
	Holds   bool
}

// Estimate is one persisted cost-model entry of the query planner: the
// commutative observation sums for a (database fingerprint, semantics)
// pair. Sums — not averages — are stored so merges from cluster
// handoff slices are order-independent; the planner derives the
// moving-average estimate as sum/count.
type Estimate struct {
	Raw       string // exact CNF fingerprint (the session/routing key)
	Sem       string // semantics name
	Count     int64  // completed observations folded in
	SumNP     int64  // total NP-oracle calls observed
	SumConfl  int64  // total SAT conflicts observed
	SumMicros int64  // total solve wall-clock, microseconds
}

// Config tunes Open.
type Config struct {
	// Dir is the store directory (created if absent). Required.
	Dir string
	// MaxBytes is the log-size budget; when an append pushes the log
	// past it, the flusher compacts to the live set. 0 = 256 MiB.
	MaxBytes int64
}

// Recovery describes what Open found on disk.
type Recovery struct {
	Artifacts int   // artifact records loaded
	Verdicts  int   // verdict records loaded
	Estimates int   // planner cost-estimate records loaded
	TornTail  bool  // the log ended in an invalid record
	Dropped   int64 // bytes truncated from the torn tail
}

// Stats is a point-in-time snapshot of the store.
type Stats struct {
	Artifacts      int64 // live artifact entries
	Verdicts       int64 // live verdict entries
	Estimates      int64 // live planner cost-estimate entries
	QueuedWrites   int64 // records enqueued since open
	FlushedWrites  int64 // records written+synced
	Flushes        int64 // flush batches
	Compactions    int64
	WriteErrors    int64
	SizeBytes      int64 // current log size
	TornTail       bool  // recovery found (and dropped) a torn tail
	DroppedBytes   int64 // bytes dropped by recovery
	FlusherRunning bool  // background flusher goroutine alive
}

// Store is the persistent tier. All methods are goroutine-safe; Put*
// never blocks on disk (write-behind). Close flushes and stops the
// flusher; a closed store drops further Puts silently (the drain
// contract: late write-behinds from in-flight requests are lossy by
// design, exactly like a crash immediately after them).
type Store struct {
	cfg Config

	mu        sync.Mutex
	f         *os.File
	size      int64
	artifacts map[string]Artifact
	verdicts  map[string]map[string]bool // raw\x00sem → memoKey → holds
	estimates map[string]Estimate        // raw\x00sem → latest sums
	pending   []pendingRec
	closed    bool

	wake    chan struct{}
	done    chan struct{}
	flushMu sync.Mutex // serializes explicit Flush against the flusher

	recovery Recovery

	queued      int64
	flushed     int64
	flushes     int64
	compactions int64
	writeErrs   int64
	running     bool
}

type pendingRec struct {
	typ     byte
	payload []byte
}

// Open creates or recovers the store in cfg.Dir, loading every valid
// record into memory and truncating any torn tail, then starts the
// write-behind flusher. The returned Recovery reports what was loaded
// and dropped.
func Open(cfg Config) (*Store, Recovery, error) {
	if cfg.Dir == "" {
		return nil, Recovery{}, errors.New("store: Config.Dir required")
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 256 << 20
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, Recovery{}, fmt.Errorf("store: mkdir: %w", err)
	}
	s := &Store{
		cfg:       cfg,
		artifacts: map[string]Artifact{},
		verdicts:  map[string]map[string]bool{},
		estimates: map[string]Estimate{},
		wake:      make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	// A temp file left by a crash mid-compaction is garbage: the rename
	// never happened, so the old log is authoritative.
	os.Remove(filepath.Join(cfg.Dir, tmpName))
	if err := s.recover(); err != nil {
		return nil, s.recovery, err
	}
	s.running = true
	go s.flusher()
	return s, s.recovery, nil
}

// Path returns the log file path (diagnostics, tests).
func (s *Store) Path() string { return filepath.Join(s.cfg.Dir, logName) }

// recover loads the log, truncating at the first invalid record.
func (s *Store) recover() error {
	path := s.Path()
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: read log: %w", err)
	}
	valid := int64(0)
	if len(data) >= len(magic) && string(data[:len(magic)]) == magic {
		valid = int64(len(magic))
		off := len(magic)
		for off < len(data) {
			n, typ, payload := parseRecord(data[off:])
			if n <= 0 {
				break
			}
			if !s.apply(typ, payload) {
				break
			}
			off += n
			valid = int64(off)
		}
		if int64(len(data)) > valid {
			s.recovery.TornTail = true
			s.recovery.Dropped = int64(len(data)) - valid
		}
	} else if len(data) > 0 {
		// Header itself is damaged (or a foreign file): the whole
		// content is the torn tail. Start fresh rather than guessing.
		s.recovery.TornTail = true
		s.recovery.Dropped = int64(len(data))
		valid = 0
	}

	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: open log: %w", err)
	}
	if valid == 0 {
		if err := f.Truncate(0); err != nil {
			f.Close()
			return fmt.Errorf("store: truncate: %w", err)
		}
		if _, err := f.WriteAt([]byte(magic), 0); err != nil {
			f.Close()
			return fmt.Errorf("store: write header: %w", err)
		}
		valid = int64(len(magic))
	} else if err := f.Truncate(valid); err != nil {
		f.Close()
		return fmt.Errorf("store: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(valid, 0); err != nil {
		f.Close()
		return fmt.Errorf("store: seek: %w", err)
	}
	if s.recovery.TornTail {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("store: sync after truncate: %w", err)
		}
	}
	s.f, s.size = f, valid
	s.recovery.Artifacts = len(s.artifacts)
	s.recovery.Estimates = len(s.estimates)
	for _, m := range s.verdicts {
		s.recovery.Verdicts += len(m)
	}
	return nil
}

// parseRecord decodes one record from b. It returns the record's total
// byte length (≤ 0 when b does not start with a fully valid record),
// its type, and its checksum-verified payload.
func parseRecord(b []byte) (int, byte, []byte) {
	if len(b) < 1 {
		return 0, 0, nil
	}
	typ := b[0]
	if typ != recArtifact && typ != recVerdict && typ != recLegacyIntern && typ != recEstimate {
		return 0, 0, nil
	}
	plen, n := binary.Uvarint(b[1:])
	if n <= 0 || plen > maxValue {
		return 0, 0, nil
	}
	off := 1 + n
	if len(b) < off+4+int(plen) {
		return 0, 0, nil
	}
	want := binary.LittleEndian.Uint32(b[off:])
	payload := b[off+4 : off+4+int(plen)]
	if crc32.ChecksumIEEE(payload) != want {
		return 0, 0, nil
	}
	return off + 4 + int(plen), typ, payload
}

// apply decodes a checksum-valid payload into the in-memory index; a
// structurally malformed payload returns false and ends recovery at
// the previous record.
func (s *Store) apply(typ byte, payload []byte) bool {
	d := decoder{b: payload}
	switch typ {
	case recArtifact:
		text, _ := d.str(), d.str() // the key field: see artifactPayload
		frag := d.byte()
		if d.bad || !d.done() {
			return false
		}
		s.artifacts[text] = Artifact{Text: text, Frag: frag}
	case recVerdict:
		raw, sem, memoKey := d.str(), d.str(), d.str()
		holds := d.byte()
		if d.bad || !d.done() || holds > 1 {
			return false
		}
		vk := raw + "\x00" + sem
		m := s.verdicts[vk]
		if m == nil {
			m = map[string]bool{}
			s.verdicts[vk] = m
		}
		m[memoKey] = holds == 1
	case recLegacyIntern:
		// Skipped: nothing reads these any more (see the tag comment).
	case recEstimate:
		raw, sem := d.str(), d.str()
		count, np, confl, micros := d.u64(), d.u64(), d.u64(), d.u64()
		if d.bad || !d.done() {
			return false
		}
		s.estimates[raw+"\x00"+sem] = Estimate{
			Raw: raw, Sem: sem,
			Count: int64(count), SumNP: int64(np), SumConfl: int64(confl), SumMicros: int64(micros),
		}
	default:
		return false
	}
	return true
}

// ---- reads (served from the in-memory index) ----

// Artifact returns the persisted artifact for a database text.
func (s *Store) Artifact(text string) (Artifact, bool) {
	s.mu.Lock()
	a, ok := s.artifacts[text]
	s.mu.Unlock()
	return a, ok
}

// Artifacts snapshots every live artifact (prewarm iteration order is
// unspecified).
func (s *Store) Artifacts() []Artifact {
	s.mu.Lock()
	out := make([]Artifact, 0, len(s.artifacts))
	for _, a := range s.artifacts {
		out = append(out, a)
	}
	s.mu.Unlock()
	return out
}

// Verdicts returns a copy of the persisted memo for one (database
// fingerprint, semantics) session key; nil when none.
func (s *Store) Verdicts(raw, sem string) map[string]bool {
	s.mu.Lock()
	m := s.verdicts[raw+"\x00"+sem]
	if m == nil {
		s.mu.Unlock()
		return nil
	}
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	s.mu.Unlock()
	return out
}

// AllVerdicts snapshots every persisted verdict across all session
// keys — the export surface for cluster drain handoff, where a
// departing worker ships its whole verdict corpus to ring successors.
func (s *Store) AllVerdicts() []Verdict {
	s.mu.Lock()
	n := 0
	for _, m := range s.verdicts {
		n += len(m)
	}
	out := make([]Verdict, 0, n)
	for vk, m := range s.verdicts {
		raw, sem := splitKey(vk)
		for memoKey, holds := range m {
			out = append(out, Verdict{Raw: raw, Sem: sem, MemoKey: memoKey, Holds: holds})
		}
	}
	s.mu.Unlock()
	return out
}

// EstimateFor returns the persisted cost-model sums for one
// (fingerprint, semantics) pair.
func (s *Store) EstimateFor(raw, sem string) (Estimate, bool) {
	s.mu.Lock()
	e, ok := s.estimates[raw+"\x00"+sem]
	s.mu.Unlock()
	return e, ok
}

// Estimates snapshots every live cost-model entry — the planner's
// startup seed and the cluster handoff export surface.
func (s *Store) Estimates() []Estimate {
	s.mu.Lock()
	out := make([]Estimate, 0, len(s.estimates))
	for _, e := range s.estimates {
		out = append(out, e)
	}
	s.mu.Unlock()
	return out
}

// ---- writes (write-behind) ----

// PutArtifact enqueues an artifact; an identical live entry is skipped
// so hot-path repeats don't grow the log.
func (s *Store) PutArtifact(a Artifact) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if cur, ok := s.artifacts[a.Text]; ok && cur == a {
		s.mu.Unlock()
		return
	}
	s.artifacts[a.Text] = a
	s.enqueue(recArtifact, artifactPayload(a))
	s.mu.Unlock()
}

// artifactPayload encodes an artifact record: text, key, frag. The
// key field once held a canonical class key that nothing read; it is
// written empty and read and discarded, so logs written before and
// after its removal share one layout and reopen on either side.
func artifactPayload(a Artifact) []byte {
	var e encoder
	e.str(a.Text)
	e.str("")
	e.byte(a.Frag)
	return e.b
}

// PutVerdict enqueues a completed verdict memo entry.
func (s *Store) PutVerdict(v Verdict) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	vk := v.Raw + "\x00" + v.Sem
	m := s.verdicts[vk]
	if got, ok := m[v.MemoKey]; ok && got == v.Holds {
		s.mu.Unlock()
		return
	}
	if m == nil {
		m = map[string]bool{}
		s.verdicts[vk] = m
	}
	m[v.MemoKey] = v.Holds
	var e encoder
	e.str(v.Raw)
	e.str(v.Sem)
	e.str(v.MemoKey)
	e.bool(v.Holds)
	s.enqueue(recVerdict, e.b)
	s.mu.Unlock()
}

// PutEstimate enqueues (replacing) a planner cost-model entry. The
// latest sums win — the estimator folds observations in memory and
// periodically snapshots, so the log carries monotone progress, not an
// append per query.
func (s *Store) PutEstimate(e Estimate) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if e.Count <= 0 {
		s.mu.Unlock()
		return
	}
	k := e.Raw + "\x00" + e.Sem
	if cur, ok := s.estimates[k]; ok && cur == e {
		s.mu.Unlock()
		return
	}
	s.estimates[k] = e
	var enc encoder
	enc.str(e.Raw)
	enc.str(e.Sem)
	enc.u64(uint64(e.Count))
	enc.u64(uint64(e.SumNP))
	enc.u64(uint64(e.SumConfl))
	enc.u64(uint64(e.SumMicros))
	s.enqueue(recEstimate, enc.b)
	s.mu.Unlock()
}

// enqueue (mu held) queues one record and wakes the flusher.
func (s *Store) enqueue(typ byte, payload []byte) {
	s.pending = append(s.pending, pendingRec{typ: typ, payload: payload})
	s.queued++
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// ---- flusher ----

func (s *Store) flusher() {
	defer close(s.done)
	for range s.wake {
		if s.flushOnce() {
			return // closed: Close performs the final flush itself
		}
	}
}

// flushOnce drains the pending queue to disk; reports whether the
// store was closed (ending the flusher).
func (s *Store) flushOnce() bool {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return true
	}
	batch := s.pending
	s.pending = nil
	s.mu.Unlock()
	if len(batch) > 0 {
		s.writeBatch(batch)
	}
	s.maybeCompact()
	return false
}

// writeBatch appends and fsyncs one batch.
func (s *Store) writeBatch(batch []pendingRec) {
	var buf []byte
	for _, r := range batch {
		buf = append(buf, r.typ)
		buf = binary.AppendUvarint(buf, uint64(len(r.payload)))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(r.payload))
		buf = append(buf, r.payload...)
	}
	s.mu.Lock()
	f := s.f
	s.mu.Unlock()
	if _, err := f.Write(buf); err != nil {
		s.mu.Lock()
		s.writeErrs++
		s.mu.Unlock()
		return
	}
	if err := f.Sync(); err != nil {
		s.mu.Lock()
		s.writeErrs++
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	s.size += int64(len(buf))
	s.flushed += int64(len(batch))
	s.flushes++
	s.mu.Unlock()
}

// maybeCompact rewrites the log to the live set when over budget,
// using temp-file + fsync + atomic rename.
func (s *Store) maybeCompact() {
	s.mu.Lock()
	if s.size <= s.cfg.MaxBytes {
		s.mu.Unlock()
		return
	}
	// Snapshot the live set under the lock; encode and write it out
	// without blocking writers (their appends land after the rename and
	// are re-applied by the post-compaction append path — but since the
	// log is append-only and the file handle swaps atomically below, we
	// simply hold the lock; compaction is rare and the set is bounded
	// by MaxBytes).
	buf := []byte(magic)
	appendRec := func(typ byte, payload []byte) {
		buf = append(buf, typ)
		buf = binary.AppendUvarint(buf, uint64(len(payload)))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
		buf = append(buf, payload...)
	}
	for _, a := range s.artifacts {
		appendRec(recArtifact, artifactPayload(a))
	}
	for vk, m := range s.verdicts {
		raw, sem := splitKey(vk)
		for memoKey, holds := range m {
			var e encoder
			e.str(raw)
			e.str(sem)
			e.str(memoKey)
			e.bool(holds)
			appendRec(recVerdict, e.b)
		}
	}
	for _, est := range s.estimates {
		var e encoder
		e.str(est.Raw)
		e.str(est.Sem)
		e.u64(uint64(est.Count))
		e.u64(uint64(est.SumNP))
		e.u64(uint64(est.SumConfl))
		e.u64(uint64(est.SumMicros))
		appendRec(recEstimate, e.b)
	}

	tmp := filepath.Join(s.cfg.Dir, tmpName)
	fail := func() {
		s.writeErrs++
		os.Remove(tmp)
		s.mu.Unlock()
	}
	tf, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		fail()
		return
	}
	if _, err := tf.Write(buf); err != nil {
		tf.Close()
		fail()
		return
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		fail()
		return
	}
	if err := tf.Close(); err != nil {
		fail()
		return
	}
	if err := os.Rename(tmp, s.Path()); err != nil {
		fail()
		return
	}
	nf, err := os.OpenFile(s.Path(), os.O_RDWR, 0o644)
	if err != nil {
		s.writeErrs++
		s.mu.Unlock()
		return
	}
	if _, err := nf.Seek(int64(len(buf)), 0); err != nil {
		nf.Close()
		s.writeErrs++
		s.mu.Unlock()
		return
	}
	s.f.Close()
	s.f, s.size = nf, int64(len(buf))
	s.compactions++
	s.mu.Unlock()
}

// Flush synchronously drains every queued record to disk.
func (s *Store) Flush() {
	s.flushOnce()
}

// Close flushes pending records, stops the flusher goroutine (waiting
// for it to exit), and closes the log. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return nil
	}
	batch := s.pending
	s.pending = nil
	s.closed = true
	s.mu.Unlock()

	// Wake the flusher so it observes closed and exits, then wait.
	select {
	case s.wake <- struct{}{}:
	default:
	}
	<-s.done

	s.flushMu.Lock()
	if len(batch) > 0 {
		s.writeBatch(batch)
	}
	s.flushMu.Unlock()

	s.mu.Lock()
	s.running = false
	err := s.f.Close()
	s.mu.Unlock()
	return err
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	verdicts := int64(0)
	for _, m := range s.verdicts {
		verdicts += int64(len(m))
	}
	st := Stats{
		Artifacts:      int64(len(s.artifacts)),
		Verdicts:       verdicts,
		Estimates:      int64(len(s.estimates)),
		QueuedWrites:   s.queued,
		FlushedWrites:  s.flushed,
		Flushes:        s.flushes,
		Compactions:    s.compactions,
		WriteErrors:    s.writeErrs,
		SizeBytes:      s.size,
		TornTail:       s.recovery.TornTail,
		DroppedBytes:   s.recovery.Dropped,
		FlusherRunning: s.running,
	}
	s.mu.Unlock()
	return st
}

// splitKey inverts raw+"\x00"+sem. It splits at the last NUL: a raw
// fingerprint holds NUL bytes (uvarint 0 is atom 0's positive
// literal), a semantics name none.
func splitKey(vk string) (raw, sem string) {
	if i := strings.LastIndexByte(vk, 0); i >= 0 {
		return vk[:i], vk[i+1:]
	}
	return vk, ""
}

// ---- payload encoding ----

type encoder struct{ b []byte }

func (e *encoder) str(s string) {
	e.b = binary.AppendUvarint(e.b, uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *encoder) byte(v uint8) { e.b = append(e.b, v) }

func (e *encoder) u64(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

func (e *encoder) bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

type decoder struct {
	b   []byte
	bad bool
}

func (d *decoder) str() string {
	n, w := binary.Uvarint(d.b)
	if w <= 0 || n > maxValue || uint64(len(d.b)-w) < n {
		d.bad = true
		return ""
	}
	s := string(d.b[w : w+int(n)])
	d.b = d.b[w+int(n):]
	return s
}

func (d *decoder) u64() uint64 {
	v, w := binary.Uvarint(d.b)
	if w <= 0 {
		d.bad = true
		return 0
	}
	d.b = d.b[w:]
	return v
}

func (d *decoder) byte() uint8 {
	if len(d.b) < 1 {
		d.bad = true
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) done() bool { return len(d.b) == 0 }
