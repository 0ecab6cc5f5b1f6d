package compile

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/structure"
)

// Relations shadows the dynamic relations of one compilation for one
// write path: the membership of their tuples after the updates applied so
// far, the validation of Theorem 24's update model, and the one translation
// of a membership update into the pair of 0/1 leaf inputs of Lemma 40.  The
// engine state that validates a write records it here; any other engine state
// kept in lockstep with it on one clock stages the leaves Record returned and
// keeps no shadow of its own.
type Relations struct {
	res *Result
	// updated holds the membership last recorded for a tuple of a dynamic
	// relation, by the relation's name; a tuple never updated keeps its
	// membership in the compiled structure, so a new shadow copies nothing.
	updated structure.Weights[bool]
}

// NewRelations returns the shadow of res's dynamic relations as compiled.
func NewRelations(res *Result) *Relations { return &Relations{res: res} }

// Clone returns an independent copy of the shadow over the same compilation.
func (r *Relations) Clone() *Relations {
	return &Relations{res: r.res, updated: *r.updated.Clone()}
}

// ValidateTuple checks a membership update without recording it: the
// relation must have been declared dynamic at compile time, the tuple must
// match its arity and lie in the domain, and an insertion must preserve the
// Gaifman graph of the compiled structure — its elements must already be
// pairwise adjacent (Theorem 24's update model).
func (r *Relations) ValidateTuple(rel string, tuple structure.Tuple, present bool) error {
	if !r.res.DynamicRelations[rel] {
		return fmt.Errorf("relation %q was not declared dynamic at compile time", rel)
	}
	decl, _ := r.res.Structure.Sig.Relation(rel)
	if decl.Arity != len(tuple) {
		return fmt.Errorf("relation %q has arity %d, got tuple of length %d", rel, decl.Arity, len(tuple))
	}
	if err := r.res.Structure.CheckDomain(tuple); err != nil {
		return err
	}
	if present {
		g := r.res.Structure.Gaifman()
		for i := 0; i < len(tuple); i++ {
			for j := i + 1; j < len(tuple); j++ {
				if tuple[i] != tuple[j] && !g.HasEdge(tuple[i], tuple[j]) {
					return fmt.Errorf("inserting %s%v would change the Gaifman graph (elements %d and %d are not adjacent); only Gaifman-preserving updates are supported (Theorem 24)", rel, tuple, tuple[i], tuple[j])
				}
			}
		}
	}
	return nil
}

// Record notes a validated membership update and returns the leaf inputs it
// drives, resolved to their gates and not yet embedded in a semiring — v⁺
// takes [present] and v⁻ [!present], both in one committed epoch so no reader
// sees the tuple half-toggled — and the membership recorded before.
func (r *Relations) Record(rel string, tuple structure.Tuple, present bool) (leaves [2]circuit.Leaf[bool], was bool) {
	was = r.HasTuple(rel, tuple)
	r.updated.Set(rel, tuple, present)
	return [2]circuit.Leaf[bool]{
		{Gate: r.res.Program.FindInput(rel, structure.Member, tuple), Value: present},
		{Gate: r.res.Program.FindInput(rel, structure.NonMember, tuple), Value: !present},
	}, was
}

// HasTuple reports the current membership of a tuple: the state last
// recorded for it, the compiled structure's otherwise.
func (r *Relations) HasTuple(rel string, tuple structure.Tuple) bool {
	if v, ok := r.updated.Get(rel, tuple); ok {
		return v
	}
	return r.res.Structure.HasTuple(rel, tuple...)
}
