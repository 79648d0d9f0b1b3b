// Package icwa implements the Iterated Closed World Assumption of
// Gelfond, Przymusinska, and Przymusinski (§4 of the paper): ECWA
// applied iteratively along a stratification ⟨S1,…,Sr⟩ of a DSDB.
// Negative body literals are first moved into the heads (the paper's
// device: "moving each ¬x in the body to the head"), yielding a
// positive database DB′; with Pᵢ = P ∩ Sᵢ the paper's characterisation
// (citing [12, Section 6]) is the intersection of ECWAs
//
//	ICWA_{P1>…>Pr;Z}(DB) = ⋂ᵢ ECWA_{Pᵢ; Pᵢ₊₁∪…∪Pᵣ∪Z}(DB′)
//
// i.e. the prioritised-circumscription models: M ∈ ICWA iff M ⊨ DB′
// and M is (Pᵢ;Zᵢ)-minimal for every stratum i (fixing the strata
// below). Membership of a candidate costs r NP-oracle calls.
//
// Complexity shape: literal and formula inference Π₂ᵖ-complete (given
// the stratification — Theorems 4.1, 4.2, the hardness holding even
// for positive databases); model existence O(1): "Stratifiability
// asserts consistency; if DB is stratified by S, then ICWA is
// consistent for any ⟨P;Q;Z⟩".
//
// Following the paper's DSDB class, integrity clauses are not
// supported (ErrUnsupported); non-stratifiable databases yield
// ErrNotStratifiable.
package icwa

import (
	"disjunct/internal/bitset"
	"disjunct/internal/budget"
	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/logic"
	"disjunct/internal/models"
	"disjunct/internal/oracle"
	"disjunct/internal/strat"
)

func init() {
	core.Register("ICWA", func(opts core.Options) core.Semantics {
		return New(opts)
	})
	core.Describe(core.Info{
		Name:       "ICWA",
		Complexity: "literal/formula Πᵖ₂-complete (given stratification); existence O(1)",
		Cells:      core.Cells{Literal: core.CellPi2, Formula: core.CellPi2, Existence: core.CellP},
		NoIC:       true,
		Stratified: true,
	})
}

// Sem is the ICWA semantics.
type Sem struct {
	opts core.Options
}

// New returns an ICWA instance. The configured partition's P and Z
// play their usual roles; the stratification is computed from the
// database.
func New(opts core.Options) *Sem {
	opts.OracleFor()
	return &Sem{opts: opts}
}

// Name returns "ICWA".
func (s *Sem) Name() string { return "ICWA" }

// Oracle exposes the instrumented oracle.
func (s *Sem) Oracle() *oracle.NP { return s.opts.Oracle }

// prep validates d, head-shifts it, and builds the per-stratum
// partitions.
func (s *Sem) prep(d *db.DB) (*db.DB, []models.Partition, error) {
	if d.HasIntegrityClauses() {
		return nil, nil, core.ErrUnsupported
	}
	st, ok := strat.Compute(d)
	if !ok {
		return nil, nil, core.ErrNotStratifiable
	}
	shifted := d.HeadShift()
	base := s.opts.PartitionFor(d)
	n := d.N()

	parts := make([]models.Partition, 0, st.R)
	for i := 0; i < st.R; i++ {
		pi := bitset.New(n)
		zi := base.Z.Clone()
		qi := base.Q.Clone()
		for v := 0; v < n; v++ {
			if !base.P.Test(v) {
				continue
			}
			switch {
			case st.Level[v] == i:
				pi.Set(v)
			case st.Level[v] > i:
				zi.Set(v)
			default:
				qi.Set(v)
			}
		}
		if pi.IsEmpty() {
			continue // stratum contributes no minimised atoms
		}
		parts = append(parts, models.Partition{P: pi, Q: qi, Z: zi})
	}
	return shifted, parts, nil
}

// IsICWAModel reports whether m ∈ ICWA(DB): m models the head-shifted
// database and is (Pᵢ;Zᵢ)-minimal at every stratum (r NP calls).
func (s *Sem) IsICWAModel(d *db.DB, m logic.Interp) (ok bool, err error) {
	defer budget.Recover(&err)
	shifted, parts, err := s.prep(d)
	if err != nil {
		return false, err
	}
	if !shifted.Sat(m) {
		return false, nil
	}
	eng := models.NewEngine(shifted, s.opts.Oracle)
	for _, p := range parts {
		if !eng.IsMinimalPZ(m, p) {
			return false, nil
		}
	}
	return true, nil
}

// pMinimize lexicographically minimises m stratum by stratum,
// producing a prioritised-minimal (i.e. ICWA) model ≤ m in the
// prioritised order.
func pMinimize(eng *models.Engine, parts []models.Partition, m logic.Interp) logic.Interp {
	cur := m
	for _, p := range parts {
		cur = eng.MinimizePZ(cur, p)
	}
	return cur
}

// HasModel decides ICWA(DB) ≠ ∅: constantly true for stratifiable
// databases ("stratifiability asserts consistency") — the O(1) cell.
func (s *Sem) HasModel(d *db.DB) (bool, error) {
	if _, _, err := s.prep(d); err != nil {
		return false, err
	}
	return true, nil
}

// InferFormula decides ICWA(DB) ⊨ f by counterexample search: find a
// model of DB′ ∧ ¬f, verify prioritised minimality (r NP calls); on
// failure, block the candidate and the superset cone of its
// prioritised minimisation, and continue.
func (s *Sem) InferFormula(d *db.DB, f *logic.Formula) (ok bool, err error) {
	defer budget.Recover(&err)
	shifted, parts, err := s.prep(d)
	if err != nil {
		return false, err
	}
	eng := models.NewEngine(shifted, s.opts.Oracle)
	base := s.opts.PartitionFor(d)
	n := d.N()
	voc := d.Voc.Clone()
	query := logic.CloneCNF(eng.CNF())
	query = append(query, logic.TseitinNeg(f, voc)...)

	for {
		sat, m := s.opts.Oracle.Sat(voc.Size(), query)
		if !sat {
			return true, nil
		}
		mv := logic.NewInterp(n)
		for v := 0; v < n; v++ {
			mv.True.SetTo(v, m.Holds(logic.Atom(v)))
		}
		min := pMinimize(eng, parts, mv)
		if !f.Eval(min) {
			return false, nil
		}
		// min is an ICWA model satisfying f, but Z-variants of min
		// (same P and Q parts) are ICWA models too and may violate f.
		if !base.Z.IsEmpty() {
			zq := logic.CloneCNF(query)
			for v := 0; v < n; v++ {
				if base.Z.Test(v) {
					continue
				}
				a := logic.Atom(v)
				if min.Holds(a) {
					zq = append(zq, logic.Clause{logic.PosLit(a)})
				} else {
					zq = append(zq, logic.Clause{logic.NegLit(a)})
				}
			}
			if zsat, _ := s.opts.Oracle.Sat(voc.Size(), zq); zsat {
				return false, nil
			}
		}
		// Block the superset cone of min (on P∪Q): any N ⊋ min there
		// is prioritised-non-minimal; Z-variants were just cleared.
		var cone logic.Clause
		for v := 0; v < n; v++ {
			a := logic.Atom(v)
			switch {
			case base.P.Test(v):
				if min.Holds(a) {
					cone = append(cone, logic.NegLit(a))
				}
			case base.Q.Test(v):
				if min.Holds(a) {
					cone = append(cone, logic.NegLit(a))
				} else {
					cone = append(cone, logic.PosLit(a))
				}
			}
		}
		if len(cone) == 0 {
			return true, nil
		}
		query = append(query, cone)
		// Also block the candidate itself (it need not lie in the
		// cone: prioritised order is not pointwise ⊇), guaranteeing
		// progress.
		var exact logic.Clause
		for v := 0; v < n; v++ {
			a := logic.Atom(v)
			if mv.Holds(a) {
				exact = append(exact, logic.NegLit(a))
			} else {
				exact = append(exact, logic.PosLit(a))
			}
		}
		query = append(query, exact)
	}
}

// InferLiteral decides ICWA(DB) ⊨ l (Π₂ᵖ-complete given S —
// Theorem 4.2, even for positive databases).
func (s *Sem) InferLiteral(d *db.DB, l logic.Lit) (bool, error) {
	return s.InferFormula(d, logic.LitF(l))
}

// Models enumerates ICWA(DB) by filtering all models of the
// head-shifted database through the per-stratum minimality checks.
// Exponential; intended for small databases.
func (s *Sem) Models(d *db.DB, limit int, yield func(logic.Interp) bool) (count int, err error) {
	// Drain returns a trip inside the enumeration; Recover catches
	// one inside the per-model check that the yield runs.
	defer budget.Recover(&err)
	shifted, parts, err := s.prep(d)
	if err != nil {
		return 0, err
	}
	eng := models.NewEngine(shifted, s.opts.Oracle)
	_, err = models.Drain(eng.IterateModels(0), func(m logic.Interp) bool {
		for _, p := range parts {
			if !eng.IsMinimalPZ(m, p) {
				return true
			}
		}
		count++
		if !yield(m) {
			return false
		}
		return limit <= 0 || count < limit
	})
	return count, err
}

// CheckModel reports whether m ∈ ICWA(DB) (r NP-oracle calls, one per
// stratum).
func (s *Sem) CheckModel(d *db.DB, m logic.Interp) (bool, error) {
	return s.IsICWAModel(d, m)
}
