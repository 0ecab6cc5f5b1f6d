package agg

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/structure"
)

// searchDB is an undirected path 0–1–2–3–4 with empty dynamic predicates S
// (selected) and B (blocked).
const searchDB = `
domain 5
rel E 2
rel S 1
rel B 1
E 0 1
E 1 0
E 1 2
E 2 1
E 2 3
E 3 2
E 3 4
E 4 3
`

var searchNeighbors = map[int][]int{0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2, 4}, 4: {3}}

// prepareMIS prepares the maximal-independent-set improvement query: a vertex
// that is neither selected nor blocked can be added.
func prepareMIS(t *testing.T) *Prepared {
	t.Helper()
	eng, err := OpenReader(strings.NewReader(searchDB))
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	p, err := eng.Prepare(context.Background(), "!S(x) & !B(x)", WithDynamic("S", "B"))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	return p
}

// misStep selects the improvement vertex and blocks its neighbourhood.
func misStep(ans Answer) []Change {
	v := ans[0]
	changes := []Change{
		{Rel: "S", Tuple: []int{v}, Present: true},
		{Rel: "B", Tuple: []int{v}, Present: true},
	}
	for _, u := range searchNeighbors[v] {
		changes = append(changes, Change{Rel: "B", Tuple: []int{u}, Present: true})
	}
	return changes
}

func TestSearchMaximalIndependentSet(t *testing.T) {
	p := prepareMIS(t)
	ctx := context.Background()

	s, err := p.Search()
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	var solution []int
	rounds, err := s.Run(ctx, func(ans Answer) []Change {
		solution = append(solution, ans[0])
		return misStep(ans)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rounds != len(solution) || rounds != s.Rounds() {
		t.Errorf("rounds = %d, solution = %v, Rounds() = %d", rounds, solution, s.Rounds())
	}
	if s.Remaining() != 0 {
		t.Errorf("Remaining = %d after local optimum", s.Remaining())
	}
	// The solution is an independent set ...
	in := map[int]bool{}
	for _, v := range solution {
		in[v] = true
	}
	for v, ns := range searchNeighbors {
		for _, u := range ns {
			if in[v] && in[u] {
				t.Errorf("solution %v contains edge (%d,%d)", solution, v, u)
			}
		}
	}
	// ... and maximal: every unselected vertex has a selected neighbour.
	for v, ns := range searchNeighbors {
		if in[v] {
			continue
		}
		blocked := false
		for _, u := range ns {
			blocked = blocked || in[u]
		}
		if !blocked {
			t.Errorf("solution %v is not maximal: vertex %d is free", solution, v)
		}
	}

	// The Prepared itself never received the updates.
	if n, err := p.AnswerCount(ctx); err != nil || n != 5 {
		t.Errorf("base AnswerCount = %d, %v; want 5", n, err)
	}
}

func TestSearchersAreIndependent(t *testing.T) {
	p := prepareMIS(t)
	ctx := context.Background()

	s1, err := p.Search()
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	s2, err := p.Search()
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if _, err := s1.Run(ctx, misStep); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s1.Remaining() != 0 {
		t.Errorf("finished searcher has %d improvements left", s1.Remaining())
	}
	// The sibling searcher still sees the pristine solution.
	if s2.Remaining() != 5 {
		t.Errorf("fresh searcher Remaining = %d; want 5", s2.Remaining())
	}
}

func TestSearchErrors(t *testing.T) {
	eng := testEngine(t)
	ctx := context.Background()

	// Expression queries have no answer set to search.
	p, err := eng.Prepare(ctx, edgeSum)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if _, err := p.Search(); !errors.Is(err, ErrNotEnumerable) {
		t.Errorf("Search on expression = %v; want ErrNotEnumerable", err)
	}
	// Formula queries without WithDynamic have nothing to update.
	q, err := eng.Prepare(ctx, "E(x,y) & S(x)")
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if _, err := q.Search(); !errors.Is(err, ErrArgument) {
		t.Errorf("Search without dynamic relations = %v; want ErrArgument", err)
	}

	// Weight changes are rejected by Apply.
	s, err := prepareMIS(t).Search()
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if err := s.Apply(Change{Weight: "w", Tuple: []int{0}, Value: 1}); !errors.Is(err, ErrUpdate) {
		t.Errorf("weight change error = %v; want ErrUpdate", err)
	}
	// Non-dynamic relations are rejected by the enumerator.
	if err := s.Apply(Change{Rel: "E", Tuple: []int{0, 4}, Present: true}); !errors.Is(err, ErrUpdate) {
		t.Errorf("static relation change error = %v; want ErrUpdate", err)
	}
	if err := s.Apply(Change{Rel: "T", Tuple: []int{0}, Present: true}); !errors.Is(err, ErrUpdate) {
		t.Errorf("undeclared relation change error = %v; want ErrUpdate", err)
	}
}

// TestConcurrentSearchers drives several independent local searches from one
// Prepared at the same time (meaningful under -race): each Searcher owns a
// private clone of the enumeration state, so the searches need no mutual
// synchronisation and the Prepared's shared answer set stays untouched.
func TestConcurrentSearchers(t *testing.T) {
	p := prepareMIS(t)
	ctx := context.Background()
	before, err := p.AnswerCount(ctx)
	if err != nil {
		t.Fatalf("AnswerCount: %v", err)
	}

	const searchers = 6
	solutions := make([][]int, searchers)
	errs := make([]error, searchers)
	var wg sync.WaitGroup
	for i := 0; i < searchers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := p.Search()
			if err != nil {
				errs[i] = err
				return
			}
			_, err = s.Run(ctx, func(ans Answer) []Change {
				solutions[i] = append(solutions[i], ans[0])
				return misStep(ans)
			})
			if err != nil {
				errs[i] = err
				return
			}
			if rem := s.Remaining(); rem != 0 {
				errs[i] = fmt.Errorf("Remaining = %d after local optimum", rem)
			}
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("searcher %d: %v", i, err)
		}
	}
	for i, sol := range solutions {
		in := map[int]bool{}
		for _, v := range sol {
			in[v] = true
		}
		for _, v := range sol {
			for _, u := range searchNeighbors[v] {
				if in[u] {
					t.Errorf("searcher %d: solution %v is not independent (%d–%d)", i, sol, v, u)
				}
			}
		}
		for v := 0; v < 5; v++ {
			if in[v] {
				continue
			}
			blocked := false
			for _, u := range searchNeighbors[v] {
				if in[u] {
					blocked = true
				}
			}
			if !blocked {
				t.Errorf("searcher %d: solution %v is not maximal (vertex %d addable)", i, sol, v)
			}
		}
	}
	// The shared Prepared never changed.
	if after, _ := p.AnswerCount(ctx); after != before {
		t.Errorf("shared answer count changed: %d -> %d", before, after)
	}
}

// ---------------------------------------------------------------------------
// Example 25 constructions on graph families (ported from the retired
// internal/localsearch driver onto Searcher)
// ---------------------------------------------------------------------------

func pathGraph(n int) *graph.Graph { return graph.FromEdges(n, pathEdges(n)) }

func pathEdges(n int) [][2]int {
	var edges [][2]int
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return edges
}

func cycleGraph(n int) *graph.Graph {
	edges := pathEdges(n)
	if n > 2 {
		edges = append(edges, [2]int{n - 1, 0})
	}
	return graph.FromEdges(n, edges)
}

func gridGraph(w, h int) *graph.Graph {
	var edges [][2]int
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				edges = append(edges, [2]int{id(x, y), id(x+1, y)})
			}
			if y+1 < h {
				edges = append(edges, [2]int{id(x, y), id(x, y+1)})
			}
		}
	}
	return graph.FromEdges(w*h, edges)
}

func starGraph(n int) *graph.Graph {
	var edges [][2]int
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{0, i})
	}
	return graph.FromEdges(n, edges)
}

// randomSparse draws m random vertex pairs; FromEdges drops the loops and
// repeats among them.
func randomSparse(n, m int, seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	edges := make([][2]int, m)
	for i := range edges {
		edges[i] = [2]int{r.Intn(n), r.Intn(n)}
	}
	return graph.FromEdges(n, edges)
}

func searchTestGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path10":    pathGraph(10),
		"cycle9":    cycleGraph(9),
		"grid8x8":   gridGraph(8, 8),
		"star20":    starGraph(20),
		"sparse100": randomSparse(100, 150, 4),
		"edgeless":  graph.FromEdges(7, nil),
		"single":    graph.FromEdges(1, nil),
	}
}

// graphEngine encodes an undirected graph as a database with the binary
// relation E (one tuple per direction) and the given unary predicates,
// initially empty.
func graphEngine(g *graph.Graph, unary ...string) *Engine {
	rels := []structure.RelSymbol{{Name: "E", Arity: 2}}
	for _, u := range unary {
		rels = append(rels, structure.RelSymbol{Name: u, Arity: 1})
	}
	b := structure.NewBuilder(structure.MustSignature(rels, nil), g.N())
	for _, e := range g.Edges() {
		b.MustAddTuple("E", e[0], e[1])
		b.MustAddTuple("E", e[1], e[0])
	}
	return Open(FromStructure(b.Build(), nil))
}

// growSolution runs a search whose every round adds the improvement vertex v
// to the solution predicate S and marks v's closed neighbourhood with mark,
// as one wave, and returns the vertices in the order they were added.
func growSolution(t *testing.T, g *graph.Graph, query, mark string) []int {
	t.Helper()
	p, err := graphEngine(g, "S", mark).Prepare(context.Background(), query, WithDynamic("S", mark))
	if err != nil {
		t.Fatalf("Prepare(%q): %v", query, err)
	}
	s, err := p.Search()
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	var solution []int
	rounds, err := s.Run(context.Background(), func(ans Answer) []Change {
		v := ans[0]
		solution = append(solution, v)
		changes := []Change{SetTuple("S", []int{v}, true), SetTuple(mark, []int{v}, true)}
		for _, u := range g.Neighbors(v) {
			changes = append(changes, SetTuple(mark, []int{u}, true))
		}
		return changes
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rounds != len(solution) || s.Rounds() != rounds {
		t.Errorf("%d rounds (Rounds() = %d) but %d vertices selected", rounds, s.Rounds(), len(solution))
	}
	return solution
}

// maximalIndependentSet computes an inclusion-maximal independent set of g:
// the improvement query asks for a vertex that is neither selected nor
// adjacent to a selected vertex.
func maximalIndependentSet(t *testing.T, g *graph.Graph) []int {
	return growSolution(t, g, "!S(x) & !Blocked(x)", "Blocked")
}

// minimalDominatingSet computes an inclusion-minimal dominating set of g.
// The growing phase is a search (the improvement query asks for a vertex that
// is not yet dominated); a pruning phase then removes redundant vertices
// while keeping every vertex dominated.
func minimalDominatingSet(t *testing.T, g *graph.Graph) []int {
	solution := growSolution(t, g, "!Dom(x)", "Dom")
	// cover[u] counts the solution vertices in the closed neighbourhood of u.
	cover := make([]int, g.N())
	inSolution := make([]bool, g.N())
	for _, v := range solution {
		inSolution[v] = true
		cover[v]++
		for _, u := range g.Neighbors(v) {
			cover[u]++
		}
	}
	for i := len(solution) - 1; i >= 0; i-- {
		v := solution[i]
		redundant := cover[v] >= 2
		for _, u := range g.Neighbors(v) {
			redundant = redundant && cover[u] >= 2
		}
		if !redundant {
			continue
		}
		inSolution[v] = false
		cover[v]--
		for _, u := range g.Neighbors(v) {
			cover[u]--
		}
	}
	var kept []int
	for _, v := range solution {
		if inSolution[v] {
			kept = append(kept, v)
		}
	}
	return kept
}

// isIndependentSet reports whether the given vertex set is independent in g.
func isIndependentSet(g *graph.Graph, set []int) bool {
	in := make([]bool, g.N())
	for _, v := range set {
		in[v] = true
	}
	for _, e := range g.Edges() {
		if in[e[0]] && in[e[1]] {
			return false
		}
	}
	return true
}

// isDominatingSet reports whether every vertex of g is in the set or has a
// neighbour in the set.
func isDominatingSet(g *graph.Graph, set []int) bool {
	in := make([]bool, g.N())
	for _, v := range set {
		in[v] = true
	}
	for v := 0; v < g.N(); v++ {
		dominated := in[v]
		for _, u := range g.Neighbors(v) {
			dominated = dominated || in[u]
		}
		if !dominated {
			return false
		}
	}
	return true
}

// isMaximalIndependentSet reports whether the set is independent and no
// vertex can be added without breaking independence — which is to say it
// also dominates.
func isMaximalIndependentSet(g *graph.Graph, set []int) bool {
	return isIndependentSet(g, set) && isDominatingSet(g, set)
}

// isMinimalDominatingSet reports whether the set dominates g and no proper
// subset obtained by removing a single vertex still does.
func isMinimalDominatingSet(g *graph.Graph, set []int) bool {
	if !isDominatingSet(g, set) {
		return false
	}
	for i := range set {
		reduced := append(append([]int(nil), set[:i]...), set[i+1:]...)
		if isDominatingSet(g, reduced) {
			return false
		}
	}
	return true
}

func TestSearchVerifierHelpers(t *testing.T) {
	g := pathGraph(5) // 0-1-2-3-4
	if !isIndependentSet(g, []int{0, 2, 4}) {
		t.Errorf("{0,2,4} should be independent on a path")
	}
	if isIndependentSet(g, []int{0, 1}) {
		t.Errorf("{0,1} should not be independent")
	}
	if !isMaximalIndependentSet(g, []int{0, 2, 4}) {
		t.Errorf("{0,2,4} should be maximal")
	}
	if isMaximalIndependentSet(g, []int{0, 4}) {
		t.Errorf("{0,4} is not maximal (vertex 2 can be added)")
	}
	if !isDominatingSet(g, []int{1, 3}) {
		t.Errorf("{1,3} should dominate the path")
	}
	if isDominatingSet(g, []int{0}) {
		t.Errorf("{0} should not dominate the path")
	}
	if !isMinimalDominatingSet(g, []int{1, 3}) {
		t.Errorf("{1,3} should be a minimal dominating set")
	}
	if isMinimalDominatingSet(g, []int{0, 1, 3}) {
		t.Errorf("{0,1,3} is not minimal (0 is redundant)")
	}
}

func TestSearchMaximalIndependentSetOnGraphFamilies(t *testing.T) {
	for name, g := range searchTestGraphs() {
		if sol := maximalIndependentSet(t, g); !isMaximalIndependentSet(g, sol) {
			t.Errorf("%s: solution of size %d is not a maximal independent set", name, len(sol))
		}
	}
	// On an edgeless graph the whole vertex set is selected.
	if got := len(maximalIndependentSet(t, graph.FromEdges(5, nil))); got != 5 {
		t.Errorf("edgeless graph: got %d vertices, want 5", got)
	}
	// On a star, either the centre alone or all leaves form the only maximal
	// independent sets.
	if got := len(maximalIndependentSet(t, starGraph(10))); got != 1 && got != 9 {
		t.Errorf("star: maximal independent set size %d, want 1 or 9", got)
	}
	// A path with n vertices has maximal independent sets of size ≥ ⌈n/3⌉.
	if got := len(maximalIndependentSet(t, pathGraph(12))); got < 4 {
		t.Errorf("path12: maximal independent set size %d below the ⌈n/3⌉ bound", got)
	}
}

func TestSearchMinimalDominatingSetOnGraphFamilies(t *testing.T) {
	for name, g := range searchTestGraphs() {
		sol := minimalDominatingSet(t, g)
		if !isDominatingSet(g, sol) {
			t.Errorf("%s: solution does not dominate the graph", name)
		}
		if !isMinimalDominatingSet(g, sol) {
			t.Errorf("%s: solution of size %d is not inclusion-minimal", name, len(sol))
		}
	}
	// A star has exactly two inclusion-minimal dominating sets: the centre
	// alone, or all the leaves.
	if got := len(minimalDominatingSet(t, starGraph(15))); got != 1 && got != 14 {
		t.Errorf("star: dominating set size %d, want 1 or 14", got)
	}
	// An edgeless graph needs every vertex.
	if got := len(minimalDominatingSet(t, graph.FromEdges(4, nil))); got != 4 {
		t.Errorf("edgeless: dominating set size %d, want 4", got)
	}
	// A path on 3k vertices has domination number k.
	if got := len(minimalDominatingSet(t, pathGraph(9))); got < 3 || got > 5 {
		t.Errorf("path9: dominating set size %d outside [3,5]", got)
	}
}

// TestSearchCustomImprovement drives a binary improvement query with
// per-tuple Apply calls: repeatedly select an edge (x, y) with both endpoints
// unmatched and mark both endpoints, producing a maximal matching.
func TestSearchCustomImprovement(t *testing.T) {
	g := gridGraph(6, 6)
	p, err := graphEngine(g, "M").Prepare(context.Background(), "E(x,y) & !M(x) & !M(y)", WithDynamic("M"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.Search()
	if err != nil {
		t.Fatal(err)
	}
	matched := make([]bool, g.N())
	edges := 0
	for {
		ans, ok := s.FindImprovement()
		if !ok {
			break
		}
		x, y := ans[0], ans[1]
		if matched[x] || matched[y] || !g.HasEdge(x, y) {
			t.Fatalf("improvement (%d,%d) violates the matching invariant", x, y)
		}
		matched[x], matched[y] = true, true
		edges++
		if err := s.Apply(SetTuple("M", []int{x}, true)); err != nil {
			t.Fatal(err)
		}
		if err := s.Apply(SetTuple("M", []int{y}, true)); err != nil {
			t.Fatal(err)
		}
	}
	if edges == 0 {
		t.Fatal("no matching edges found on a 6x6 grid")
	}
	// Maximality: every edge has a matched endpoint.
	for _, e := range g.Edges() {
		if !matched[e[0]] && !matched[e[1]] {
			t.Fatalf("edge (%d,%d) could still be added to the matching", e[0], e[1])
		}
	}
	if s.Rounds() != edges {
		t.Errorf("rounds = %d, edges = %d", s.Rounds(), edges)
	}
}

// TestBatchedSearchMatchesPerTuple runs the same maximal-independent-set
// local search twice on each random graph — once committing every round
// through a single batched Apply wave, once through per-tuple Apply calls —
// and requires the two drivers to walk the identical improvement sequence to
// the identical local optimum.
func TestBatchedSearchMatchesPerTuple(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		n := 60 + int(seed)*13
		g := randomSparse(n, 2*n, seed)
		p, err := graphEngine(g, "S", "B").Prepare(context.Background(), "!S(x) & !B(x)", WithDynamic("S", "B"))
		if err != nil {
			t.Fatalf("seed %d: Prepare: %v", seed, err)
		}
		run := func(batched bool) []int {
			s, err := p.Search()
			if err != nil {
				t.Fatalf("seed %d: Search: %v", seed, err)
			}
			var solution []int
			for {
				ans, ok := s.FindImprovement()
				if !ok {
					return solution
				}
				v := ans[0]
				solution = append(solution, v)
				changes := []Change{SetTuple("S", []int{v}, true), SetTuple("B", []int{v}, true)}
				for _, u := range g.Neighbors(v) {
					changes = append(changes, SetTuple("B", []int{u}, true))
				}
				if batched {
					if err := s.Apply(changes...); err != nil {
						t.Fatalf("seed %d: batched Apply: %v", seed, err)
					}
					continue
				}
				for _, ch := range changes {
					if err := s.Apply(ch); err != nil {
						t.Fatalf("seed %d: Apply: %v", seed, err)
					}
				}
			}
		}
		batched, perTuple := run(true), run(false)
		if len(batched) != len(perTuple) {
			t.Fatalf("seed %d: batched found %d improvements, per-tuple %d", seed, len(batched), len(perTuple))
		}
		for i := range batched {
			if batched[i] != perTuple[i] {
				t.Fatalf("seed %d: round %d picked %d (batched) vs %d (per-tuple)", seed, i, batched[i], perTuple[i])
			}
		}
		if !isMaximalIndependentSet(g, batched) {
			t.Fatalf("seed %d: solution of size %d is not a maximal independent set", seed, len(batched))
		}
	}
}
