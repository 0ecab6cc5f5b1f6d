package compile

import (
	"fmt"
	"maps"

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
	// updated[k] is the membership last recorded for the tuple of the Member
	// input k; a tuple never updated keeps its membership in the compiled
	// structure, so a new shadow copies nothing.
	updated map[structure.WeightKey]bool
}

// NewRelations returns the shadow of res's dynamic relations as compiled.
func NewRelations(res *Result) *Relations { return &Relations{res: res} }

// Clone returns an independent copy of the shadow over the same compilation.
func (r *Relations) Clone() *Relations {
	return &Relations{res: r.res, updated: maps.Clone(r.updated)}
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
// drives, before they are embedded in any semiring — v⁺ takes [present] and
// v⁻ takes [!present]; both must change within one committed epoch so no
// reader sees the tuple half-toggled — and the membership recorded before.
func (r *Relations) Record(rel string, tuple structure.Tuple, present bool) (leaves [2]circuit.InputChange[bool], was bool) {
	key := tuple.Key()
	member := membershipInput(rel, key, true)
	was = r.has(member, tuple)
	if r.updated == nil {
		r.updated = make(map[structure.WeightKey]bool)
	}
	r.updated[member] = present
	return [2]circuit.InputChange[bool]{
		{Key: member, Value: present},
		{Key: membershipInput(rel, key, false), Value: !present},
	}, was
}

// has is the current membership of the tuple of the Member input k.
func (r *Relations) has(k structure.WeightKey, tuple structure.Tuple) bool {
	if v, ok := r.updated[k]; ok {
		return v
	}
	return r.res.Structure.HasTuple(k.Weight, tuple...)
}

// HasTuple reports the current membership of a tuple: the recorded state for
// a dynamic relation, the compiled structure otherwise.
func (r *Relations) HasTuple(rel string, tuple structure.Tuple) bool {
	if r.res.DynamicRelations[rel] {
		return r.has(membershipInput(rel, tuple.Key(), true), tuple)
	}
	return r.res.Structure.HasTuple(rel, tuple...)
}
