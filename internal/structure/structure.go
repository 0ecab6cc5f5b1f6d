// Package structure defines relational structures (databases) with
// semiring-valued weight functions, and their Gaifman graphs.
//
// A Σ(w)-structure of the paper is represented here as a Structure (the
// relational part, fixed at compile time) plus a Weights assignment (the
// semiring-valued part, which is an input of compiled circuits and may be
// updated dynamically).
//
// A Structure is built once, by a Builder, and never changes; what the
// pipeline derives from it adds no Gaifman edge, so it is a view (Extend)
// sharing the base's relations and Gaifman graph.
package structure

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/graph"
)

// Element is a database element.  Domains are always {0, ..., n-1}.
type Element = int

// Tuple is a tuple of database elements.
type Tuple []Element

// Equal reports element-wise equality.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// RelSymbol declares a relation symbol.
type RelSymbol struct {
	Name  string
	Arity int
}

// WeightSymbol declares a weight symbol: a function from tuples to semiring
// elements.  Weight symbols of arity ≥ 1 may only assign non-zero weights to
// tuples that appear in some relation of matching arity (the paper's
// requirement on Σ(w)-structures); this is validated by Weights.Validate.
type WeightSymbol struct {
	Name  string
	Arity int
}

// Signature is a relational signature together with weight symbols.
//
// Function symbols are not part of the public signature; the paper notes
// that functions can always be encoded by relations (their graphs), and the
// internal compilation pipeline introduces its own unary functions when
// applying the degeneracy encoding of Lemma 37.
type Signature struct {
	Relations []RelSymbol
	Weights   []WeightSymbol

	relIndex    map[string]int
	weightIndex map[string]int
}

// NewSignature builds a signature and validates symbol names for
// uniqueness.
func NewSignature(relations []RelSymbol, weights []WeightSymbol) (*Signature, error) {
	s := &Signature{
		Relations:   relations,
		Weights:     weights,
		relIndex:    make(map[string]int),
		weightIndex: make(map[string]int),
	}
	for i, r := range relations {
		if r.Arity < 1 {
			return nil, fmt.Errorf("structure: relation %q has arity %d; arities must be ≥ 1", r.Name, r.Arity)
		}
		if _, dup := s.relIndex[r.Name]; dup {
			return nil, fmt.Errorf("structure: duplicate relation symbol %q", r.Name)
		}
		s.relIndex[r.Name] = i
	}
	for i, w := range weights {
		if w.Arity < 0 {
			return nil, fmt.Errorf("structure: weight %q has negative arity", w.Name)
		}
		if _, dup := s.weightIndex[w.Name]; dup {
			return nil, fmt.Errorf("structure: duplicate weight symbol %q", w.Name)
		}
		if _, clash := s.relIndex[w.Name]; clash {
			return nil, fmt.Errorf("structure: weight symbol %q clashes with a relation symbol", w.Name)
		}
		s.weightIndex[w.Name] = i
	}
	return s, nil
}

// MustSignature is NewSignature that panics on error; intended for tests and
// examples with literal signatures.
func MustSignature(relations []RelSymbol, weights []WeightSymbol) *Signature {
	s, err := NewSignature(relations, weights)
	if err != nil {
		panic(err)
	}
	return s
}

// Relation returns the declaration of the named relation symbol.
func (s *Signature) Relation(name string) (RelSymbol, bool) {
	i, ok := s.relIndex[name]
	if !ok {
		return RelSymbol{}, false
	}
	return s.Relations[i], true
}

// Weight returns the declaration of the named weight symbol.
func (s *Signature) Weight(name string) (WeightSymbol, bool) {
	i, ok := s.weightIndex[name]
	if !ok {
		return WeightSymbol{}, false
	}
	return s.Weights[i], true
}

// WithWeights returns a copy of the signature with additional weight
// symbols appended (used by the free-variable reduction of Theorem 8, which
// introduces fresh unary weight symbols v_1, ..., v_k).
func (s *Signature) WithWeights(extra ...WeightSymbol) (*Signature, error) {
	return NewSignature(s.Relations, append(append([]WeightSymbol(nil), s.Weights...), extra...))
}

// Structure is a finite relational structure over a signature: a domain
// {0..N-1} and, for each relation symbol, the set of tuples it contains.  It
// is immutable, and reads may run concurrently.
type Structure struct {
	Sig *Signature
	N   int

	// rels[i] holds relation Sig.Relations[i]: its tuples in insertion order,
	// which fixes the Gaifman graph's adjacency order and with it every
	// colouring and Program compiled over the structure, and the integer
	// index membership tests and partner scans read (relation.go).
	rels []Relation

	// gaifman builds Gaifman's graph on its first call and returns that graph
	// from then on; an Extend view shares its base's.
	gaifman func() *graph.Graph
}

// Builder makes a Structure: tuples are added and removed one at a time, and
// Build hands the finished structure over.  A builder is not used after
// Build.
type Builder struct {
	a *Structure
}

// NewBuilder returns a builder of an empty structure with the given domain
// size.
func NewBuilder(sig *Signature, n int) *Builder {
	a := &Structure{Sig: sig, N: n, rels: make([]Relation, len(sig.Relations))}
	for i, r := range sig.Relations {
		a.rels[i] = Relation{arity: r.Arity, n: n}
	}
	return &Builder{a: a}
}

// Edit returns a builder seeded with a's tuples, copied in bulk into one arena
// per relation (Relation.clone); a itself is left untouched.
func (a *Structure) Edit() *Builder {
	b := NewBuilder(a.Sig, a.N)
	for i := range a.rels {
		b.a.rels[i] = a.rels[i].clone()
	}
	return b
}

// Build returns the structure built.
func (b *Builder) Build() *Structure {
	a := b.a
	a.gaifman, b.a = sync.OnceValue(a.buildGaifman), nil
	return a
}

// AddTuple inserts a tuple into the named relation.  Duplicate insertions
// are ignored.
func (b *Builder) AddTuple(rel string, tuple ...Element) error {
	r, err := b.relationFor(rel, tuple)
	if err == nil {
		r.add(tuple)
	}
	return err
}

// MustAddTuple is AddTuple that panics on error.
func (b *Builder) MustAddTuple(rel string, tuple ...Element) {
	if err := b.AddTuple(rel, tuple...); err != nil {
		panic(err)
	}
}

// RemoveTuple deletes a tuple from the named relation; removing an absent
// tuple is a no-op.  The index is updated by a binary search in the tuple's
// run, O(log d) for a run of d tuples plus the shift; the insertion list,
// which keeps the order of the remaining tuples, is scanned once, linear in
// the relation's size.  Nothing is allocated.
func (b *Builder) RemoveTuple(rel string, tuple ...Element) error {
	r, err := b.relationFor(rel, tuple)
	if err == nil {
		r.remove(tuple)
	}
	return err
}

// relationFor resolves the relation a write names and checks the tuple's
// arity and domain against it.
func (b *Builder) relationFor(rel string, tuple []Element) (*Relation, error) {
	r := b.a.Relation(rel)
	if r == nil {
		return nil, fmt.Errorf("structure: unknown relation %q", rel)
	}
	if len(tuple) != r.arity {
		return nil, fmt.Errorf("structure: relation %q has arity %d, got tuple of length %d", rel, r.arity, len(tuple))
	}
	if err := b.a.CheckDomain(tuple); err != nil {
		return nil, fmt.Errorf("structure: %w", err)
	}
	return r, nil
}

// Extend returns a view of a over sig, which lists a's relations first, in
// a's order, and then new ones; its weight symbols are free.  derived[i]
// fills the i-th new relation, in the order given.  A derived tuple of arity
// ≥ 2 must lie in some relation of a, so the view adds no edge to the
// Gaifman graph: it shares a's relations and a's Gaifman graph, and costs
// what it adds, not a copy of a.
func (a *Structure) Extend(sig *Signature, derived ...[]Tuple) (*Structure, error) {
	k := len(a.Sig.Relations)
	if len(sig.Relations) < k || !slices.Equal(sig.Relations[:k], a.Sig.Relations) {
		return nil, fmt.Errorf("structure: an extension must list the relations %v first", a.Sig.Relations)
	}
	if len(derived) > len(sig.Relations)-k {
		return nil, fmt.Errorf("structure: %d derived relations for %d new relation symbols", len(derived), len(sig.Relations)-k)
	}
	b := NewBuilder(sig, a.N)
	copy(b.a.rels, a.rels)
	for i, ts := range derived {
		name := sig.Relations[k+i].Name
		for _, t := range ts {
			if len(t) >= 2 && !a.InSomeRelation(t) {
				return nil, fmt.Errorf("structure: derived tuple %s%v lies in no relation of the base structure", name, t)
			}
			if err := b.AddTuple(name, t...); err != nil {
				return nil, err
			}
		}
	}
	b.a.gaifman = a.gaifman
	return b.a, nil
}

// Relation returns a handle on the named relation, nil when the signature
// does not declare it (a nil handle holds nothing).
func (a *Structure) Relation(name string) *Relation {
	i, ok := a.Sig.relIndex[name]
	if !ok {
		return nil
	}
	return &a.rels[i]
}

// CheckDomain reports the first element of t outside the domain {0..N-1}.
// Every write path checks it, so no write keeps a key that addresses nothing.
func (a *Structure) CheckDomain(t Tuple) error {
	for _, e := range t {
		if e < 0 || e >= a.N {
			return fmt.Errorf("element %d out of domain [0,%d)", e, a.N)
		}
	}
	return nil
}

// Holds reports whether the membership input of the given role at tuple t of
// relation rel is one: whether rel holds t (Member) or does not (NonMember).
func (a *Structure) Holds(rel string, role Role, t Tuple) bool {
	return a.Relation(rel).Has(t...) == (role == Member)
}

// HasTuple reports whether the named relation contains the tuple.  An
// unknown relation, a tuple of the wrong arity and an element outside the
// domain are all answered false.
func (a *Structure) HasTuple(rel string, tuple ...Element) bool {
	return a.Relation(rel).Has(tuple...)
}

// Tuples returns the tuples of the named relation in insertion order.  The
// returned slice must not be modified.
func (a *Structure) Tuples(rel string) []Tuple {
	if r := a.Relation(rel); r != nil {
		return r.tuples
	}
	return nil
}

// TupleCount returns the total number of tuples over all relations, which
// for structures from a bounded-expansion class is linear in N.
func (a *Structure) TupleCount() int {
	total := 0
	for i := range a.rels {
		total += len(a.rels[i].tuples)
	}
	return total
}

// Gaifman returns the Gaifman graph of the structure: vertices are domain
// elements; two distinct elements are adjacent when they occur together in
// some tuple of some relation.  It is built once, on the first call, and may
// be read concurrently.
func (a *Structure) Gaifman() *graph.Graph { return a.gaifman() }

// buildGaifman builds the Gaifman graph from the relations, in signature order
// and insertion order: the adjacency lists, and with them every colouring and
// forest computed from the graph, are a function of the structure alone.  The
// relations a view adds after its base's repeat edges the base already has,
// so the view's graph is its base's, neighbour order included.
func (a *Structure) buildGaifman() *graph.Graph {
	pairs := 0
	for _, r := range a.rels {
		pairs += len(r.tuples) * r.arity * (r.arity - 1) / 2
	}
	edges := make([][2]int, 0, pairs)
	for i := range a.rels {
		for _, t := range a.rels[i].tuples {
			for i := 0; i < len(t); i++ {
				for j := i + 1; j < len(t); j++ {
					edges = append(edges, [2]int{t[i], t[j]})
				}
			}
		}
	}
	return graph.FromEdges(a.N, edges)
}

// Clone returns a structure over the same relations with a Gaifman graph of
// its own, not yet built.
func (a *Structure) Clone() *Structure {
	return (&Builder{a: &Structure{Sig: a.Sig, N: a.N, rels: a.rels}}).Build()
}

// ---------------------------------------------------------------------------
// Weight assignments
// ---------------------------------------------------------------------------

// WeightKey labels an input of the circuits the compiler produces — a weight
// symbol applied to a tuple of elements (the pairs (w, a) of the paper), or,
// by its Role, one of Lemma 40's membership inputs of the dynamic relation in
// Weight — with the tuple in decimal text: the form an input (circuit.Input,
// integers) takes at the boundary, formatted by InputLabel and decoded by
// AppendTuple.  The role is a field and not part of the name, so no weight
// symbol, whatever it is called, addresses a membership input.
type WeightKey struct {
	Weight string
	Tuple  string // the argument tuple's elements in decimal, comma separated
	Role   Role
}

// Role says what a circuit input stands for.
type Role uint8

const (
	// Ordinary is the zero Role: a weight of the database, or a parameter
	// weight of a closure (Theorem 8).
	Ordinary Role = iota
	// Member is v⁺_R(ā) of Lemma 40: one iff relation R holds ā.
	Member
	// NonMember is v⁻_R(ā): one iff R does not hold ā.
	NonMember
)

// Name renders the key's symbol for display: the weight symbol, or
// "rel+:R"/"rel-:R" for a membership input of R.
func (k WeightKey) Name() string {
	switch k.Role {
	case Member:
		return "rel+:" + k.Weight
	case NonMember:
		return "rel-:" + k.Weight
	}
	return k.Weight
}

// InputLabel labels the input sym(t) of the given role, formatting t.
func InputLabel(sym string, role Role, t Tuple) WeightKey {
	var buf [48]byte // the usual arities (≤ 4) and domain sizes fit on the stack
	b := buf[:0]
	for i, e := range t {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(e), 10)
	}
	return WeightKey{Weight: sym, Tuple: string(b), Role: role}
}

// MakeWeightKey labels weight symbol w applied to tuple t.
func MakeWeightKey(w string, t Tuple) WeightKey { return InputLabel(w, Ordinary, t) }

// AppendTuple decodes the key's tuple onto t — the one decoder of the label
// text — allocating only when t runs out of capacity, or for the error.
func (k WeightKey) AppendTuple(t Tuple) (Tuple, error) {
	if k.Tuple == "" {
		return t, nil
	}
	for rest, more := k.Tuple, true; more; {
		var part string
		part, rest, more = strings.Cut(rest, ",")
		e, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("structure: malformed tuple key %q", k.Tuple)
		}
		t = append(t, e)
	}
	return t, nil
}

// ParseTupleKey decodes the tuple text of a label.  Every label is minted by
// InputLabel, so a malformed one is a bug in the caller and panics instead of
// decoding to zeros.
func ParseTupleKey(key string) Tuple {
	t, err := WeightKey{Tuple: key}.AppendTuple(make(Tuple, 0, strings.Count(key, ",")+1))
	if err != nil {
		panic(err)
	}
	return t
}

// Weights assigns semiring values to weight inputs, which are all of role
// Ordinary.  Missing entries are implicitly the semiring zero.  An entry is
// integers in a TupleIndex, so reading or overwriting one allocates nothing.
type Weights[T any] struct {
	names []string // the weight symbols, by the heads of their entries
	index TupleIndex
	vals  []T // vals[i] is the value of index entry i
}

// NewWeights returns an empty weight assignment.
func NewWeights[T any]() *Weights[T] { return &Weights[T]{} }

// Set assigns w(tuple) = value.
func (w *Weights[T]) Set(weight string, tuple Tuple, value T) {
	w.Assign(w.Head(weight), tuple, value)
}

// Head returns the head of the weight symbol's entries, the symbol's number in
// the assignment, adding the symbol when it has none.  A head never changes,
// so a caller that writes one symbol many times resolves its name once.
func (w *Weights[T]) Head(weight string) int32 {
	s := slices.Index(w.names, weight)
	if s < 0 {
		s, w.names = len(w.names), append(w.names, weight)
	}
	return int32(s)
}

// Assign sets the entry of head (see Head) at tuple to value with one probe
// of the index, and returns the entry's row, the value it replaced and
// whether it had one.  Rows are numbered densely in the order entries are
// first set and never renumbered, so a row identifies its (symbol, tuple)
// for the assignment's lifetime.
func (w *Weights[T]) Assign(head int32, tuple Tuple, value T) (row int, old T, had bool) {
	row, added := w.index.Add(head, tuple)
	if added {
		w.vals = append(w.vals, value)
		return row, old, false
	}
	old, w.vals[row] = w.vals[row], value
	return row, old, true
}

// Get returns w(tuple) and whether it was explicitly set.
func (w *Weights[T]) Get(weight string, tuple Tuple) (T, bool) {
	// An unknown symbol's head, -1, heads no entry.
	if i := w.index.Find(int32(slices.Index(w.names, weight)), tuple); i >= 0 {
		return w.vals[i], true
	}
	var zero T
	return zero, false
}

// Len returns the number of explicitly set weights.
func (w *Weights[T]) Len() int { return len(w.vals) }

// Clone returns an independent copy of the assignment; the values themselves
// are shared (weights are treated as immutable semiring elements).
func (w *Weights[T]) Clone() *Weights[T] {
	return &Weights[T]{names: slices.Clone(w.names), index: w.index.Clone(), vals: slices.Clone(w.vals)}
}

// MapWeights returns the assignment w with every value passed through f: the
// same entries in the same order, indexed by a copy of w's index instead of
// entry by entry.
func MapWeights[T, U any](w *Weights[T], f func(weight string, t Tuple, v T) U) *Weights[U] {
	out := &Weights[U]{names: slices.Clone(w.names), index: w.index.Clone(), vals: make([]U, len(w.vals))}
	for i, v := range w.vals {
		out.vals[i] = f(w.names[w.index.Head(i)], w.index.Tuple(i), v)
	}
	return out
}

// Each calls fn for every explicitly set weight, in the order the entries
// were first set.  The tuple is a view into an arena that is only ever
// appended to, so it stays valid; it must not be modified.
func (w *Weights[T]) Each(fn func(weight string, t Tuple, v T)) {
	for i, v := range w.vals {
		fn(w.names[w.index.Head(i)], w.index.Tuple(i), v)
	}
}

// ForEach is Each with every entry labelled by its WeightKey, for callers
// that name weights by their text.
func (w *Weights[T]) ForEach(fn func(k WeightKey, v T)) {
	w.Each(func(weight string, t Tuple, v T) { fn(MakeWeightKey(weight, t), v) })
}

// Validate checks the paper's requirement that weight symbols of arity ≥ 1
// assign non-zero values only to tuples present in some relation of matching
// arity (for arity 1, to any domain element), and that arities match the
// signature.  isZero decides zero-ness of values.
func (w *Weights[T]) Validate(a *Structure, isZero func(T) bool) error {
	for i, v := range w.vals {
		name, t := w.names[w.index.Head(i)], w.index.Tuple(i)
		decl, ok := a.Sig.Weight(name)
		if !ok {
			return fmt.Errorf("structure: weight value set for undeclared weight symbol %q", name)
		}
		if len(t) != decl.Arity {
			return fmt.Errorf("structure: weight %q has arity %d but value set for tuple of length %d", name, decl.Arity, len(t))
		}
		if decl.Arity <= 1 || isZero(v) || a.InSomeRelation(t) {
			continue
		}
		return fmt.Errorf("structure: non-zero weight %s(%v) on a tuple outside every relation of arity %d", name, t, decl.Arity)
	}
	return nil
}

// InSomeRelation reports whether some relation of t's arity holds t.
func (a *Structure) InSomeRelation(t Tuple) bool {
	for _, r := range a.Sig.Relations {
		if r.Arity == len(t) && a.HasTuple(r.Name, t...) {
			return true
		}
	}
	return false
}
