// Package disjunct is a library for reasoning over propositional
// disjunctive databases under the ten closed-world semantics analysed
// in Eiter & Gottlob, "Complexity Aspects of Various Semantics for
// Disjunctive Databases" (PODS 1993) — GCWA, CCWA, EGCWA, ECWA/CIRC,
// DDR/WGCWA, PWS/PMS, ICWA, PERF, DSM and PDSM — plus Reiter's
// original CWA, which the paper discusses as the baseline the
// disjunctive semantics repair.
//
// The package is a facade over the internal implementation. Quick
// start:
//
//	d := disjunct.MustParse("bird. flies | injured :- bird.")
//	s, _ := disjunct.NewSemantics("GCWA", disjunct.Options{})
//	f := disjunct.MustParseFormula("flies | injured", d.Voc)
//	holds, _ := s.InferFormula(d, f)
//
// Databases are finite sets of clauses
//
//	a1 | … | an :- b1, …, bk, not c1, …, not cm.
//
// over a propositional vocabulary; clauses with an empty head are
// integrity clauses (denials). Every semantics answers the paper's
// three decision problems — InferLiteral, InferFormula, HasModel — and
// enumerates its model set via Models. All NP-oracle (SAT) and
// Σ₂ᵖ-oracle usage is metered on the Oracle carried by Options, which
// is how the benchmark harness exhibits each complexity-table cell.
package disjunct

import (
	"context"

	"disjunct/internal/budget"
	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/faults"
	"disjunct/internal/ground"
	"disjunct/internal/logic"
	"disjunct/internal/models"
	"disjunct/internal/oracle"
	"disjunct/internal/strat"
	"disjunct/internal/wfs"

	// Register every semantics with the core registry.
	_ "disjunct/internal/semantics/ccwa"
	_ "disjunct/internal/semantics/cwa"
	_ "disjunct/internal/semantics/ddr"
	_ "disjunct/internal/semantics/dsm"
	_ "disjunct/internal/semantics/ecwa"
	_ "disjunct/internal/semantics/egcwa"
	_ "disjunct/internal/semantics/gcwa"
	_ "disjunct/internal/semantics/icwa"
	_ "disjunct/internal/semantics/pdsm"
	_ "disjunct/internal/semantics/perf"
	_ "disjunct/internal/semantics/pws"
)

// Core data types, re-exported from the implementation packages.
type (
	// DB is a propositional disjunctive database.
	DB = db.DB
	// Clause is a single database clause (head, positive body,
	// negative body).
	Clause = db.Clause
	// Atom is a propositional variable index.
	Atom = logic.Atom
	// Lit is a positive or negated atom.
	Lit = logic.Lit
	// Formula is a propositional formula over a database vocabulary.
	Formula = logic.Formula
	// Vocabulary maps atom names to indices.
	Vocabulary = logic.Vocabulary
	// Interp is a two-valued interpretation (set of true atoms).
	Interp = logic.Interp
	// Partial is a 3-valued interpretation (PDSM).
	Partial = logic.Partial
	// Semantics is a disjunctive database semantics: the paper's three
	// decision problems plus model enumeration.
	Semantics = core.Semantics
	// Options configures a semantics (partition, shared oracle).
	Options = core.Options
	// Partition is a ⟨P;Q;Z⟩ vocabulary partition for CCWA/ECWA/ICWA.
	Partition = models.Partition
	// Oracle is the instrumented NP/Σ₂ᵖ oracle.
	Oracle = oracle.NP
	// OracleCounters reports oracle usage.
	OracleCounters = oracle.Counters
)

// Shared sentinel errors.
var (
	// ErrUnsupported marks a database outside the class a semantics is
	// defined for.
	ErrUnsupported = core.ErrUnsupported
	// ErrNotStratifiable marks a non-stratifiable database given to
	// ICWA.
	ErrNotStratifiable = core.ErrNotStratifiable
)

// Parse reads a database in the textual clause syntax; see the
// package documentation for the grammar.
func Parse(input string) (*DB, error) { return db.Parse(input) }

// MustParse is Parse panicking on error (examples, tests).
func MustParse(input string) *DB {
	d, err := db.Parse(input)
	if err != nil {
		panic(err)
	}
	return d
}

// NewDB returns an empty database over a fresh vocabulary.
func NewDB() *DB { return db.New() }

// ParseFormula parses a propositional query formula against a
// database's vocabulary.
func ParseFormula(input string, voc *Vocabulary) (*Formula, error) {
	return logic.ParseFormula(input, voc)
}

// MustParseFormula is ParseFormula panicking on error.
func MustParseFormula(input string, voc *Vocabulary) *Formula {
	return logic.MustParseFormula(input, voc)
}

// NewSemantics instantiates a semantics by its paper abbreviation:
// "GCWA", "CCWA", "EGCWA", "ECWA", "CIRC", "DDR", "WGCWA", "PWS",
// "PMS", "ICWA", "PERF", "DSM", "PDSM", plus Reiter's baseline "CWA".
// The boolean reports whether the name is known.
func NewSemantics(name string, opts Options) (Semantics, bool) {
	return core.New(name, opts)
}

// SemanticsNames returns the registered semantics names.
func SemanticsNames() []string { return core.Names() }

// NewOracle returns a fresh instrumented oracle, for sharing across
// semantics instances and reading usage counters.
func NewOracle() *Oracle { return oracle.NewNP() }

// NewPartition builds a ⟨P;Q;Z⟩ partition over n atoms from the
// minimised (P) and varying (Z) atom lists; unlisted atoms are fixed
// (Q).
func NewPartition(n int, p, z []Atom) Partition {
	return models.NewPartition(n, p, z)
}

// PosLit returns the positive literal of a.
func PosLit(a Atom) Lit { return logic.PosLit(a) }

// NegLit returns the negated literal of a.
func NegLit(a Atom) Lit { return logic.NegLit(a) }

// MinimalModels enumerates the minimal models MM(DB) — the common
// substrate of the closed-world semantics — invoking yield for each.
// limit ≤ 0 means unlimited; the count is returned.
func MinimalModels(d *DB, limit int, yield func(Interp) bool) int {
	count, _ := models.Drain(models.NewEngine(d, nil).IterateMinimalModels(limit), yield)
	return count // unbudgeted: the enumeration always completes
}

// UniqueMinimalModel decides UMINSAT for the database (Proposition 5.4
// of the paper): does DB have exactly one minimal model? When it does,
// that model is returned.
func UniqueMinimalModel(d *DB) (bool, Interp) {
	return models.NewEngine(d, nil).UniqueMinimalModel()
}

// CredulousFormula reports whether SOME model of the semantics
// satisfies f (brave inference), the companion of the tables' cautious
// InferFormula.
func CredulousFormula(s Semantics, d *DB, f *Formula) (bool, error) {
	return core.CredulousFormula(s, d, f)
}

// CredulousLiteral reports whether some model of the semantics
// satisfies l.
func CredulousLiteral(s Semantics, d *DB, l Lit) (bool, error) {
	return core.CredulousLiteral(s, d, l)
}

// ParseProgram parses a non-ground (datalog-with-disjunction) program
// and grounds it over its active domain, returning the propositional
// database every semantics operates on. Ground atom names follow the
// "pred(c1,c2)" convention in the vocabulary.
func ParseProgram(input string) (*DB, error) {
	prog, err := ground.ParseProgram(input)
	if err != nil {
		return nil, err
	}
	return prog.Ground()
}

// MustParseProgram is ParseProgram panicking on error.
func MustParseProgram(input string) *DB {
	d, err := ParseProgram(input)
	if err != nil {
		panic(err)
	}
	return d
}

// CheckModel decides the model-checking problem m ∈ SEM(DB). Every
// bundled semantics implements a dedicated checker (polynomial for
// DDR/PWS, one NP-oracle call for the minimality/stability/perfection
// based semantics).
func CheckModel(s Semantics, d *DB, m Interp) (bool, error) {
	return core.CheckModel(s, d, m)
}

// WellFounded computes the well-founded partial model of a normal
// (non-disjunctive) logic program — the polynomial semantics PDSM
// generalises. ok is false when d is not a normal program.
func WellFounded(d *DB) (Partial, bool) {
	if !wfs.IsNormal(d) {
		return Partial{}, false
	}
	return wfs.Compute(d), true
}

// Classify returns the database's class in the paper's hierarchy:
// positive DDB ⊂ DDDB ⊂ DSDB ⊂ DNDB ("DSDB" requires stratifiability).
func Classify(d *DB) string {
	return strat.Classify(d).String()
}

// Budgeted, cancellable inference. A Budget is attached to an oracle
// (Oracle.WithBudget); every solver on that oracle polls it and every
// NP call charges it, so any inference running on the oracle either
// completes — with a verdict identical to the unbudgeted run — or
// returns one of the typed interruption errors below. See the README
// "Robustness & budgets" section.
type (
	// Budget carries a context, a deadline, and resource limits
	// (conflicts, propagations, NP calls) shared by every solver of an
	// oracle. The zero value and nil are both "unlimited".
	Budget = budget.B
	// BudgetLimits configures a Budget.
	BudgetLimits = budget.Limits
	// Verdict is the three-valued outcome of a budgeted query: true,
	// false, or incomplete (unknown-out-of-budget) with a typed cause.
	Verdict = core.Verdict
	// FaultInjector deterministically injects latency, transient solver
	// failures, and spurious cancellations into an oracle
	// (Oracle.WithFaults) for chaos testing.
	FaultInjector = faults.Injector
)

// Typed interruption causes; match with errors.Is.
var (
	// ErrCanceled: the budget's context was canceled (or a fault
	// injector fired a spurious cancellation).
	ErrCanceled = budget.ErrCanceled
	// ErrDeadline: the wall-clock deadline passed.
	ErrDeadline = budget.ErrDeadline
	// ErrConflictBudget: the solver-conflict budget ran out.
	ErrConflictBudget = budget.ErrConflictBudget
	// ErrPropagationBudget: the unit-propagation budget ran out.
	ErrPropagationBudget = budget.ErrPropagationBudget
	// ErrNPCallBudget: the NP-oracle-call budget ran out.
	ErrNPCallBudget = budget.ErrNPCallBudget
)

// NewBudget builds a Budget from a context and limits; zero/absent
// fields are unlimited. Attach it with Oracle.WithBudget.
func NewBudget(ctx context.Context, lim BudgetLimits) *Budget {
	return budget.New(ctx, lim)
}

// NewFaultInjector builds a deterministic fault injector firing on
// roughly rate·100% of oracle calls, seeded for reproducibility; nil
// (no faults) when rate ≤ 0. Attach it with Oracle.WithFaults.
func NewFaultInjector(rate float64, seed int64) *FaultInjector {
	return faults.NewInjector(rate, seed)
}

// Interrupted reports whether err is one of the typed interruption
// causes (possibly wrapped) — i.e. whether a query was cut short by
// budget/cancellation rather than failing semantically.
func Interrupted(err error) bool { return budget.Interrupted(err) }

// VerdictOf folds an inference result into a three-valued Verdict:
// interruption errors become Incomplete verdicts, other errors are
// returned unchanged.
func VerdictOf(holds bool, err error) (Verdict, error) {
	return core.VerdictOf(holds, err)
}
