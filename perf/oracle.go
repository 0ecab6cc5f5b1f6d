package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"strconv"

	"repro/agg"
	"repro/internal/baseline"
	"repro/internal/dbio"
	"repro/internal/semiring"
	"repro/internal/structure"
)

// The queries of the four workloads.
const (
	queryTriangle = "sum x,y,z . [E(x,y)&E(y,z)&E(z,x)] * w(x,y)*w(y,z)*w(z,x)"
	queryPath     = "E(x,y) & E(y,z) & S(x)"
	queryExists   = "sum x . [exists y . E(x,y) & S(y)] * u(x)"
	queryPoint    = "sum y,z . [E(x,y)&E(y,z)&!(x=z)] * u(y)*u(z)"
	queryEdges    = "sum x,y . [E(x,y)] * w(x,y)"
)

// inputs is one generated database, in the serialised form the program
// under test loads and in the structure form the reference answers are
// computed from.  It is built once per process, outside every timer.
//
// baseline.MaterializeAnswers and baseline.EvalExpression enumerate N^k
// assignments (43 s for the path formula at n=600), so apart from the
// triangle count the references are the direct adjacency walks below; the
// package test holds them equal to the baseline at a small size.
type inputs struct {
	kind string
	n    int
	seed int64
	raw  []byte
	a    *structure.Structure
	w    *structure.Weights[int64]
	out  [][]int // out-neighbours by vertex, in tuple order

	// Reference answers under the generated weights.
	triRef     string   // queryTriangle
	exRef      string   // queryExists
	edgeRef    string   // queryEdges
	pathRef    [][3]int // queryPath, sorted
	pathDigest uint64
	hot        []int // the hotKeys vertices of highest degree
}

// topologySeed fixes the graph every run measures.  The run's seed draws the
// weights and the op sequences, never the edges: with the edges seeded too,
// two runs of one commit differed by 12 % in the cold Prepare time and 10 %
// in its allocations, which is the graph's doing and not the code's.
const topologySeed = 1

func newInputs(kind string, n int, seed int64) (*inputs, error) {
	db, err := agg.Generate(kind, n, topologySeed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := db.Write(&buf); err != nil {
		return nil, fmt.Errorf("serialise %s n=%d: %w", kind, n, err)
	}
	d, err := dbio.Read(&buf)
	if err != nil {
		return nil, fmt.Errorf("reload %s n=%d: %w", kind, n, err)
	}
	// Redraw every weight from the seed, in the generator's range 1..8 and in
	// the serialised (sorted) order so the draw does not follow map order.
	rng := rand.New(rand.NewSource(seed))
	var keys []structure.WeightKey
	d.W.ForEach(func(k structure.WeightKey, _ int64) { keys = append(keys, k) })
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Weight != keys[j].Weight {
			return keys[i].Weight < keys[j].Weight
		}
		return keys[i].Tuple < keys[j].Tuple
	})
	for _, k := range keys {
		d.W.Set(k.Weight, structure.ParseTupleKey(k.Tuple), rng.Int63n(8)+1)
	}
	buf.Reset()
	if err := dbio.Write(&buf, d.A, d.W); err != nil {
		return nil, fmt.Errorf("serialise %s n=%d: %w", kind, n, err)
	}
	in := &inputs{kind: kind, n: d.A.N, seed: seed, raw: buf.Bytes(), a: d.A, w: d.W, out: make([][]int, d.A.N)}
	for _, t := range d.A.Tuples("E") {
		in.out[t[0]] = append(in.out[t[0]], t[1])
	}
	in.triRef = strconv.FormatInt(baseline.TriangleCountEdgeIterate(semiring.Nat, in.a, in.w), 10)
	in.exRef, in.edgeRef = in.existsSum(), in.edgeSum()
	in.pathRef = in.pathAnswers()
	in.pathDigest = answersDigest(in.pathRef)
	in.hot = in.hotVertices(hotKeys)
	return in, nil
}

// hash fingerprints the serialised database.
func (in *inputs) hash() string {
	h := fnv.New64a()
	h.Write(in.raw)
	return strconv.FormatUint(h.Sum64(), 16)
}

// existsSum is queryExists: the weight of every vertex with an out-neighbour
// in S.
func (in *inputs) existsSum() string {
	var total int64
	for x, ys := range in.out {
		if slices.ContainsFunc(ys, func(y int) bool { return in.a.HasTuple("S", y) }) {
			v, _ := in.w.Get("u", structure.Tuple{x})
			total += v
		}
	}
	return strconv.FormatInt(total, 10)
}

func (in *inputs) edgeSum() string {
	var total int64
	for _, t := range in.a.Tuples("E") {
		v, _ := in.w.Get("w", t)
		total += v
	}
	return strconv.FormatInt(total, 10)
}

// pathAnswers lists the answers (x,y,z) of queryPath in sorted order.
func (in *inputs) pathAnswers() [][3]int {
	var out [][3]int
	for _, t := range in.a.Tuples("E") {
		if !in.a.HasTuple("S", t[0]) {
			continue
		}
		for _, z := range in.out[t[1]] {
			out = append(out, [3]int{t[0], t[1], z})
		}
	}
	sortAnswers(out)
	return out
}

// vertexWeights returns u as a slice the session workloads mutate alongside
// the session, so the reference always carries the current weights.
func (in *inputs) vertexWeights() []int64 {
	u := make([]int64, in.n)
	for v := range u {
		u[v], _ = in.w.Get("u", structure.Tuple{v})
	}
	return u
}

// pointAt is queryPoint at x under the vertex weights u.
func (in *inputs) pointAt(u []int64, x int) string {
	var total int64
	for _, y := range in.out[x] {
		for _, z := range in.out[y] {
			if z != x {
				total += u[y] * u[z]
			}
		}
	}
	return strconv.FormatInt(total, 10)
}

// hotVertices returns the k vertices of highest degree (in plus out), ties
// broken by vertex number.
func (in *inputs) hotVertices(k int) []int {
	deg := make([]int, in.n)
	for _, t := range in.a.Tuples("E") {
		deg[t[0]]++
		deg[t[1]]++
	}
	vs := make([]int, in.n)
	for v := range vs {
		vs[v] = v
	}
	sort.Slice(vs, func(i, j int) bool {
		if deg[vs[i]] != deg[vs[j]] {
			return deg[vs[i]] > deg[vs[j]]
		}
		return vs[i] < vs[j]
	})
	if k > len(vs) {
		k = len(vs)
	}
	return vs[:k]
}

func sortAnswers(as [][3]int) {
	sort.Slice(as, func(i, j int) bool {
		a, b := as[i], as[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
}

// answerHash is an order-independent digest of one answer, summed over a
// stream so a timed pass can be checked without collecting it.
func answerHash(x, y, z int) uint64 {
	h := uint64(x)*0x9e3779b97f4a7c15 ^ uint64(y)*0xc2b2ae3d27d4eb4f ^ uint64(z)*0x165667b19e3779f9
	h ^= h >> 29
	return h * 0xbf58476d1ce4e5b9
}

func answersDigest(as [][3]int) uint64 {
	var d uint64
	for _, a := range as {
		d += answerHash(a[0], a[1], a[2])
	}
	return d
}
