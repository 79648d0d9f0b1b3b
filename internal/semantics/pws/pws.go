// Package pws implements Chan's Possible Worlds Semantics (§3.2),
// equivalent to Sakama's Possible Models Semantics (PMS).
//
// A split program of DB chooses, for every non-integrity clause, a
// nonempty subset of its head atoms, yielding a definite program
// (heads of size one after splitting: each chosen atom gets the
// clause's body). A possible model of DB is the least model of some
// split program; integrity clauses filter the candidates. PWS
// inference is truth in every possible model.
//
// Complexity shape: negative-literal inference on positive DDBs
// without integrity clauses is polynomial (Chan; zero oracle calls:
// x is false in all possible models iff x is outside the all-heads
// least fixpoint); with integrity clauses literal inference is
// coNP-complete and formula inference coNP-complete in both regimes.
//
// Each coNP cell is one NP call, the membership witness of the paper's
// upper bound: a countermodel is a possible model falsifying the
// query, and "M is a possible model" has the polynomial verifier
// CheckModel, which possibleCNF writes as clauses. Models is that
// encoding under SAT with one blocking clause per model found.
package pws

import (
	"disjunct/internal/bitset"
	"disjunct/internal/budget"
	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/fixpoint"
	"disjunct/internal/logic"
	"disjunct/internal/oracle"
	"disjunct/internal/strat"
)

func init() {
	core.Register("PWS", func(opts core.Options) core.Semantics {
		return New(opts)
	})
	core.Register("PMS", func(opts core.Options) core.Semantics {
		s := New(opts)
		s.name = "PMS"
		return s
	})
	pwsCell := "negative literal in P (no IC) / coNP with IC; formula coNP-complete; existence NP"
	pwsCells := core.Cells{Literal: core.CellCoNP, Formula: core.CellCoNP, Existence: core.CellNP}
	core.Describe(core.Info{Name: "PWS", Complexity: pwsCell, Cells: pwsCells, NoNegation: true})
	core.Describe(core.Info{Name: "PMS", Complexity: pwsCell, Cells: pwsCells, NoNegation: true})
}

// Sem is the PWS ≡ PMS semantics.
type Sem struct {
	opts core.Options
	name string
}

// New returns a PWS instance.
func New(opts core.Options) *Sem {
	opts.OracleFor()
	return &Sem{opts: opts, name: "PWS"}
}

// Name returns "PWS" (or "PMS").
func (s *Sem) Name() string { return s.name }

// Oracle exposes the instrumented oracle.
func (s *Sem) Oracle() *oracle.NP { return s.opts.Oracle }

func (s *Sem) check(d *db.DB) error {
	if d.HasNegation() {
		return core.ErrUnsupported
	}
	return nil
}

// InferLiteral decides PWS(DB) ⊨ l. Fast path (Chan's Table 1 cell):
// on a positive DDB without integrity clauses, ¬x is inferred iff x is
// outside the all-heads least fixpoint — polynomial, zero oracle calls
// (the fixpoint is the least model of the maximal split program, which
// is itself a possible model containing every possibly-true atom).
// Every other literal is one NP call: is there a possible model with
// the complement of l?
func (s *Sem) InferLiteral(d *db.DB, l logic.Lit) (ok bool, err error) {
	defer budget.Recover(&err)
	if err := s.check(d); err != nil {
		return false, err
	}
	if !l.IsPos() && !d.HasIntegrityClauses() {
		return !fixpoint.PossiblyTrue(d).Test(int(l.Atom())), nil
	}
	nVars, cnf := possibleCNF(d, d.N(), s.opts.Oracle.Budget())
	counter, _ := s.opts.Oracle.Sat(nVars, append(cnf, logic.Clause{l.Neg()}))
	return !counter, nil
}

// PossiblyTrueAtoms returns the atoms true in at least one possible
// model (ignoring integrity clauses) — the polynomial closure.
func (s *Sem) PossiblyTrueAtoms(d *db.DB) *bitset.Set {
	return fixpoint.PossiblyTrue(d)
}

// InferFormula decides PWS(DB) ⊨ f: truth in every possible model, by
// one NP call for a possible model of ¬f (coNP).
func (s *Sem) InferFormula(d *db.DB, f *logic.Formula) (ok bool, err error) {
	defer budget.Recover(&err)
	if err := s.check(d); err != nil {
		return false, err
	}
	w := d.Voc.Clone()
	neg := logic.TseitinNeg(f, w)
	nVars, cnf := possibleCNF(d, w.Size(), s.opts.Oracle.Budget())
	counter, _ := s.opts.Oracle.Sat(nVars, append(cnf, neg...))
	return !counter, nil
}

// HasModel decides PWS(DB) ≠ ∅: some split program's least model
// satisfies the integrity clauses. Without integrity clauses this is
// constantly true; with them it is one NP call.
func (s *Sem) HasModel(d *db.DB) (ok bool, err error) {
	defer budget.Recover(&err)
	if err := s.check(d); err != nil {
		return false, err
	}
	if !d.HasIntegrityClauses() {
		return true, nil
	}
	ok, _ = s.opts.Oracle.Sat(possibleCNF(d, d.N(), s.opts.Oracle.Budget()))
	return ok, nil
}

// Models enumerates the possible models (the paper's PWS model set):
// one NP call per model on the loaded encoding, each model then
// blocked on the database's atoms, plus the final UNSAT call unless
// limit or yield stops first.
func (s *Sem) Models(d *db.DB, limit int, yield func(logic.Interp) bool) (count int, err error) {
	defer budget.Recover(&err)
	if err := s.check(d); err != nil {
		return 0, err
	}
	n := d.N()
	p := s.opts.Oracle.Prefix(possibleCNF(d, n, s.opts.Oracle.Budget()))
	defer p.Release()
	block := make(logic.Clause, n) // Add copies it into the solver
	for limit <= 0 || count < limit {
		found, full := p.Sat(nil)
		if !found {
			break
		}
		m := logic.NewInterp(n)
		for v := 0; v < n; v++ {
			a := logic.Atom(v)
			m.True.SetTo(v, full.Holds(a))
			block[v] = logic.MkLit(a, !full.Holds(a))
		}
		count++
		if !yield(m) {
			break
		}
		p.Add(block)
	}
	return count, nil
}

// possibleCNF encodes "M is a possible model of d" (CheckModel's
// characterization) over d's atoms plus auxiliary variables numbered
// from base ≥ d.N(); it returns the variable count and the clauses:
// strat.Support's encoding of the "all heads within M" program, M ⊨ DB
// (integrity clauses included) and well-supportedness, with completion
// plus level ranking inside the positive dependency graph's strongly
// connected components. The encoding polls b every 1024 atoms and trips
// it once exhausted.
func possibleCNF(d *db.DB, base int, b *budget.B) (int, logic.CNF) {
	k := &cnfSink{cnf: make(logic.CNF, 0, 2*len(d.Clauses)+2*d.N())}
	next, _ := strat.Support(d, base, false, b, k)
	return next, k.cnf
}

// cnfSink collects an encoding's clauses. They are cut from literal
// chunks of doubling size, so the encoding costs a few allocations, not
// one per clause, and a full chunk is left to its clauses rather than
// copied.
type cnfSink struct {
	cnf  logic.CNF
	lits []logic.Lit
}

func (k *cnfSink) Clause(ls logic.Clause) {
	if cap(k.lits)-len(k.lits) < len(ls) {
		k.lits = make([]logic.Lit, 0, max(64, 2*cap(k.lits), len(ls)))
	}
	k.lits = append(k.lits, ls...)
	k.cnf = append(k.cnf, k.lits[len(k.lits)-len(ls):len(k.lits):len(k.lits)])
}

// CheckModel reports whether m is a possible model of d satisfying its
// integrity clauses — in polynomial time, without enumerating split
// programs:
//
//	m is the least model of some split program iff
//	(i)  every applicable rule (positive body ⊆ m) has a head atom
//	     in m (some nonempty choice within m exists), and
//	(ii) the least fixpoint of the "all heads within m" operator
//	     reaches every atom of m (each atom has a derivation whose
//	     choices stay inside m).
//
// Soundness: taking Sᵣ = head(r) ∩ m for every applicable rule gives a
// split program whose least model is exactly the fixpoint of (ii).
// Completeness: any split with least model m can only choose head
// atoms inside m on applicable rules, so its derivations are contained
// in the fixpoint of (ii).
func (s *Sem) CheckModel(d *db.DB, m logic.Interp) (bool, error) {
	if err := s.check(d); err != nil {
		return false, err
	}
	n := d.N()
	// Integrity clauses and rule applicability.
	for _, c := range d.Clauses {
		applicable := true
		for _, b := range c.PosBody {
			if !m.Holds(b) {
				applicable = false
				break
			}
		}
		if !applicable {
			continue
		}
		if c.IsIntegrity() {
			return false, nil
		}
		inM := false
		for _, h := range c.Head {
			if m.Holds(h) {
				inM = true
				break
			}
		}
		if !inM {
			return false, nil
		}
	}
	// Least fixpoint with all head choices restricted to m.
	derived := logic.NewInterp(n)
	for changed := true; changed; {
		changed = false
		for _, c := range d.Clauses {
			if c.IsIntegrity() {
				continue
			}
			fire := true
			for _, b := range c.PosBody {
				if !derived.Holds(b) {
					fire = false
					break
				}
			}
			if !fire {
				continue
			}
			for _, h := range c.Head {
				if m.Holds(h) && !derived.Holds(h) {
					derived.True.Set(int(h))
					changed = true
				}
			}
		}
	}
	return derived.Equal(m), nil
}
