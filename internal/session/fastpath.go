package session

import "disjunct/internal/logic"

// Per-fragment allowlists: the semantics whose model set provably
// collapses onto the fragment's fixpoint model, so their three
// decision problems are answered by evaluation — zero NP calls.
//
// PDSM answers 3-valued, but on these fragments its partial stable
// models are total: the least model on definite and Horn databases (the
// least 3-valued model of a program without negation is 2-valued), the
// total well-founded model on stratified ones, so evaluation on the
// fixpoint model gives its verdict. PERF and ICWA are excluded from the Horn fragment because they are
// undefined in the presence of integrity clauses (the fresh path
// returns ErrUnsupported); they join on the fragments they accept.
var (
	// fastDefinite: the unique minimal model IS the least model, every
	// closure/possible-world/stable/perfect construction yields exactly
	// it, it is the unique partial stable model, and the DB is always
	// consistent.
	fastDefinite = map[string]bool{
		"GCWA": true, "CCWA": true, "EGCWA": true, "ECWA": true, "CIRC": true,
		"CWA": true, "DSM": true, "DDR": true, "WGCWA": true,
		"PWS": true, "PMS": true, "PERF": true, "ICWA": true, "PDSM": true,
	}
	// fastHorn: single-head positive clauses plus denials — the model
	// set is {least model} when the denials hold there, ∅ otherwise.
	fastHorn = map[string]bool{
		"GCWA": true, "CCWA": true, "EGCWA": true, "ECWA": true, "CIRC": true,
		"CWA": true, "DSM": true, "DDR": true, "WGCWA": true,
		"PWS": true, "PMS": true, "PDSM": true,
	}
	// fastStrat: stratified normal programs have a total well-founded
	// model that is the unique stable model, the perfect model and the
	// unique partial stable model.
	fastStrat = map[string]bool{
		"DSM": true, "PERF": true, "ICWA": true, "PDSM": true,
	}
	// fastPosExistence: on a positive database without integrity
	// clauses the all-true interpretation is a model, every minimal /
	// stable / perfect / possible-world construction is nonempty, and
	// the iterated closures stay consistent — model existence is O(1)
	// ("existence O(1) positive" in the paper's cells; Truszczyński's
	// trichotomy pins the same collapse). Applies on the general
	// fragment, where the other allowlists don't. CWA is excluded (its
	// closure of a∨b is already inconsistent, existence is coNP-hard
	// even positive).
	fastPosExistence = map[string]bool{
		"GCWA": true, "CCWA": true, "EGCWA": true, "ECWA": true, "CIRC": true,
		"DSM": true, "DDR": true, "WGCWA": true,
		"PWS": true, "PMS": true, "PERF": true, "ICWA": true, "PDSM": true,
	}
)

// FastEligible reports whether fastVerdict would answer (comp, sem,
// kind) — the planner's polynomial-class membership probe. It mirrors
// fastVerdict's dispatch without evaluating the query.
func FastEligible(comp *Compiled, sem string, kind Kind) bool {
	switch comp.Frag {
	case FragDefinite:
		return fastDefinite[sem]
	case FragHorn:
		return fastHorn[sem]
	case FragStratNormal:
		return fastStrat[sem]
	default:
		return kind == KindModel && !comp.HasNeg && !comp.HasIC && fastPosExistence[sem]
	}
}

// fastVerdict answers a query from the compiled artifact alone when
// the (fragment, semantics) pair is allowlisted. The second return
// reports whether the fast path applied. No oracle is ever consulted.
func fastVerdict(comp *Compiled, sem string, kind Kind, lit logic.Lit, f *logic.Formula) (bool, bool) {
	var model logic.Interp
	consistent := true
	switch comp.Frag {
	case FragDefinite:
		if !fastDefinite[sem] {
			return false, false
		}
		model = comp.Least
	case FragHorn:
		if !fastHorn[sem] {
			return false, false
		}
		model, consistent = comp.Least, comp.Consistent
	case FragStratNormal:
		if !fastStrat[sem] {
			return false, false
		}
		model = comp.Stable
	default:
		if kind == KindModel && !comp.HasNeg && !comp.HasIC && fastPosExistence[sem] {
			return true, true
		}
		return false, false
	}
	switch kind {
	case KindModel:
		return consistent, true
	case KindLiteral:
		if !consistent {
			return true, true // the empty model set entails everything
		}
		if lit.IsPos() {
			return model.Holds(lit.Atom()), true
		}
		return !model.Holds(lit.Atom()), true
	case KindFormula:
		if !consistent {
			return true, true
		}
		return f.Eval(model), true
	}
	return false, false
}
