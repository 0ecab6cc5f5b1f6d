// Package dbio reads and writes weighted structures in a simple line-based
// text format, so that synthetic databases produced by cmd/agggen (or real
// data exported from elsewhere) can be stored in files and piped between the
// command-line tools.
//
// The format is plain UTF-8 text, one record per line:
//
//	# anything after '#' is a comment
//	domain 6                  -- number of elements; elements are 0..5
//	rel    E 2                -- declare relation E of arity 2
//	rel    S 1
//	wsym   w 2                -- declare weight symbol w of arity 2
//	wsym   u 1
//	E 0 1                     -- tuple (0,1) belongs to E
//	S 3
//	w 0 1 7                   -- weight w(0,1) = 7
//	u 3 2
//
// Declarations ("domain", "rel", "wsym") must precede the tuples and weights
// that use them.  Weight values are signed 64-bit integers; callers convert
// them into the semiring of interest with ConvertWeights.
//
// For interoperability with spreadsheet-style data the package also loads
// single relations and weight functions from CSV readers (one tuple per
// record).
package dbio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/structure"
)

// Database bundles a structure with its integer-valued weights, the unit in
// which databases are serialised.
type Database struct {
	// A is the relational structure.
	A *structure.Structure
	// W holds int64 weights for the structure's weight symbols.
	W *structure.Weights[int64]
}

// Write serialises the structure and weights to w in the text format
// described in the package documentation.  Output is deterministic: symbols
// and tuples are emitted in sorted order.
func Write(w io.Writer, a *structure.Structure, weights *structure.Weights[int64]) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %d elements, %d tuples\n", a.N, a.TupleCount())
	fmt.Fprintf(bw, "domain %d\n", a.N)

	rels := append([]structure.RelSymbol(nil), a.Sig.Relations...)
	sort.Slice(rels, func(i, j int) bool { return rels[i].Name < rels[j].Name })
	for _, r := range rels {
		fmt.Fprintf(bw, "rel %s %d\n", r.Name, r.Arity)
	}
	wsyms := append([]structure.WeightSymbol(nil), a.Sig.Weights...)
	sort.Slice(wsyms, func(i, j int) bool { return wsyms[i].Name < wsyms[j].Name })
	for _, s := range wsyms {
		fmt.Fprintf(bw, "wsym %s %d\n", s.Name, s.Arity)
	}

	for _, r := range rels {
		tuples := append([]structure.Tuple(nil), a.Tuples(r.Name)...)
		slices.SortFunc(tuples, func(a, b structure.Tuple) int { return slices.Compare(a, b) })
		for _, t := range tuples {
			bw.WriteString(r.Name)
			for _, e := range t {
				fmt.Fprintf(bw, " %d", e)
			}
			bw.WriteByte('\n')
		}
	}

	if weights != nil {
		type entry struct {
			name  string
			tuple structure.Tuple
			value int64
		}
		var entries []entry
		weights.Each(func(name string, t structure.Tuple, v int64) {
			entries = append(entries, entry{name: name, tuple: t, value: v})
		})
		sort.Slice(entries, func(i, j int) bool {
			if entries[i].name != entries[j].name {
				return entries[i].name < entries[j].name
			}
			return slices.Compare(entries[i].tuple, entries[j].tuple) < 0
		})
		for _, e := range entries {
			bw.WriteString(e.name)
			for _, el := range e.tuple {
				fmt.Fprintf(bw, " %d", el)
			}
			fmt.Fprintf(bw, " %d\n", e.value)
		}
	}
	return bw.Flush()
}

// WriteFile serialises the database to the named file.
func WriteFile(path string, a *structure.Structure, weights *structure.Weights[int64]) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, a, weights); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read parses a database in the text format described in the package
// documentation.
func Read(r io.Reader) (*Database, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)

	var (
		domain  = -1
		rels    []structure.RelSymbol
		wsyms   []structure.WeightSymbol
		sig     *structure.Signature
		b       *structure.Builder
		weights = structure.NewWeights[int64]()
		lineNo  int
	)

	// build starts the structure's builder once all declarations are known; it
	// is triggered lazily by the first tuple or weight line.
	build := func() error {
		if b != nil {
			return nil
		}
		if domain < 0 {
			return fmt.Errorf("dbio: tuple encountered before the domain declaration")
		}
		s, err := structure.NewSignature(rels, wsyms)
		if err != nil {
			return fmt.Errorf("dbio: %v", err)
		}
		sig, b = s, structure.NewBuilder(s, domain)
		return nil
	}

	for scanner.Scan() {
		lineNo++
		line := scanner.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "domain":
			if len(fields) != 2 {
				return nil, lineErr(lineNo, "domain line needs exactly one argument")
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, lineErr(lineNo, "invalid domain size %q", fields[1])
			}
			if domain >= 0 {
				return nil, lineErr(lineNo, "duplicate domain declaration")
			}
			domain = n
		case "rel":
			if b != nil {
				return nil, lineErr(lineNo, "rel declaration after tuples")
			}
			name, arity, err := parseDecl(fields)
			if err != nil {
				return nil, lineErr(lineNo, "%v", err)
			}
			rels = append(rels, structure.RelSymbol{Name: name, Arity: arity})
		case "wsym":
			if b != nil {
				return nil, lineErr(lineNo, "wsym declaration after tuples")
			}
			name, arity, err := parseDecl(fields)
			if err != nil {
				return nil, lineErr(lineNo, "%v", err)
			}
			wsyms = append(wsyms, structure.WeightSymbol{Name: name, Arity: arity})
		default:
			if err := build(); err != nil {
				return nil, err
			}
			name := fields[0]
			if decl, ok := sig.Relation(name); ok {
				if len(fields) != decl.Arity+1 {
					return nil, lineErr(lineNo, "relation %s expects %d elements, got %d", name, decl.Arity, len(fields)-1)
				}
				tuple, err := parseTuple(fields[1:], domain)
				if err != nil {
					return nil, lineErr(lineNo, "%v", err)
				}
				if err := b.AddTuple(name, tuple...); err != nil {
					return nil, lineErr(lineNo, "%v", err)
				}
				continue
			}
			if decl, ok := sig.Weight(name); ok {
				if len(fields) != decl.Arity+2 {
					return nil, lineErr(lineNo, "weight %s expects %d elements and a value, got %d fields", name, decl.Arity, len(fields)-1)
				}
				tuple, err := parseTuple(fields[1:len(fields)-1], domain)
				if err != nil {
					return nil, lineErr(lineNo, "%v", err)
				}
				value, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
				if err != nil {
					return nil, lineErr(lineNo, "invalid weight value %q", fields[len(fields)-1])
				}
				weights.Set(name, tuple, value)
				continue
			}
			return nil, lineErr(lineNo, "unknown symbol %q", name)
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	if err := build(); err != nil {
		return nil, err
	}
	return &Database{A: b.Build(), W: weights}, nil
}

// ReadFile parses the named file.
func ReadFile(path string) (*Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

func lineErr(line int, format string, args ...any) error {
	return fmt.Errorf("dbio: line %d: %s", line, fmt.Sprintf(format, args...))
}

func parseDecl(fields []string) (string, int, error) {
	if len(fields) != 3 {
		return "", 0, fmt.Errorf("declaration needs a name and an arity")
	}
	arity, err := strconv.Atoi(fields[2])
	if err != nil || arity < 0 {
		return "", 0, fmt.Errorf("invalid arity %q", fields[2])
	}
	return fields[1], arity, nil
}

func parseTuple(fields []string, domain int) (structure.Tuple, error) {
	tuple := make(structure.Tuple, len(fields))
	for i, s := range fields {
		v, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("invalid element %q", s)
		}
		if v < 0 || v >= domain {
			return nil, fmt.Errorf("element %d outside the domain [0, %d)", v, domain)
		}
		tuple[i] = v
	}
	return tuple, nil
}

// ConvertWeights maps int64 weights into an arbitrary carrier type through
// the supplied embedding, preserving the weight symbols and tuples.
func ConvertWeights[T any](w *structure.Weights[int64], embed func(int64) T) *structure.Weights[T] {
	out := structure.NewWeights[T]()
	w.Each(func(weight string, t structure.Tuple, v int64) { out.Set(weight, t, embed(v)) })
	return out
}
