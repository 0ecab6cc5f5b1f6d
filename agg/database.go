package agg

import (
	"io"

	"repro/internal/dbio"
	"repro/internal/structure"
)

// Database is a loaded sparse database: a relational structure over the
// domain {0, ..., n-1} plus integer-valued weight functions, the unit every
// Engine serves queries against.  A Database is immutable once loaded
// (dynamic updates live in sessions, never in the Database) and safe to
// share between engines and goroutines.
type Database struct {
	a *structure.Structure
	w *structure.Weights[int64]
}

// Source describes where a database comes from: an explicit reader, stdin, a
// file in the dbio text format, or a generated synthetic workload.  Exactly
// the backing of the -stdin/-file/-kind/-n flags of the command-line tools.
type Source struct {
	// Reader, when non-nil, takes precedence over every other field; the
	// database is parsed from it in the dbio text format.
	Reader io.Reader
	// Stdin reads the database from standard input.
	Stdin bool
	// Path reads the database from the named file.
	Path string

	// Kind selects a generated workload (bounded-degree, grid, forest,
	// pref-attach, road, nested, search) when no reader, stdin or path is
	// given.
	Kind string
	// N is the approximate number of elements of the generated database.
	N int
	// Degree is the degree / branching / attachment parameter; 0 selects the
	// per-kind default.
	Degree int
	// Seed is the random seed of the generator.
	Seed int64
}

// Load loads a database from the described source.
func Load(src Source) (*Database, error) {
	db, err := dbio.LoadSource(dbio.Source{
		Reader: src.Reader,
		Stdin:  src.Stdin,
		Path:   src.Path,
		Kind:   src.Kind,
		N:      src.N,
		Degree: src.Degree,
		Seed:   src.Seed,
	})
	if err != nil {
		if src.Reader == nil && !src.Stdin && src.Path == "" {
			err = newError(ErrArgument, "", err) // the generator rejected Kind or N
		}
		return nil, err
	}
	return &Database{a: db.A, w: db.W}, nil
}

// ReadDatabase parses a database from r in the dbio text format (see the
// package documentation of internal/dbio for the line grammar).
func ReadDatabase(r io.Reader) (*Database, error) {
	return Load(Source{Reader: r})
}

// ReadDatabaseFile reads a database from a file in the dbio text format.
func ReadDatabaseFile(path string) (*Database, error) {
	return Load(Source{Path: path})
}

// Generate builds a synthetic workload database (see Source.Kind for the
// available kinds).
func Generate(kind string, n int, seed int64) (*Database, error) {
	return Load(Source{Kind: kind, N: n, Seed: seed})
}

// FromStructure wraps an already-built structure and weight assignment as a
// Database.  It is in-module plumbing for code that constructs structures
// directly (internal/workload, tests, benchmarks); external embedders load
// databases through Load, ReadDatabase or Generate instead — the parameter
// types live under internal/ and cannot be named outside this module.
func FromStructure(a *structure.Structure, w *structure.Weights[int64]) *Database {
	return &Database{a: a, w: w}
}

// Elements returns the domain size n (elements are 0..n-1).
func (d *Database) Elements() int { return d.a.N }

// TupleCount returns the total number of relation tuples.
func (d *Database) TupleCount() int { return d.a.TupleCount() }

// Relations lists the relation symbols of the database's signature as
// name/arity pairs, in declaration order.
func (d *Database) Relations() []SymbolInfo {
	out := make([]SymbolInfo, len(d.a.Sig.Relations))
	for i, r := range d.a.Sig.Relations {
		out[i] = SymbolInfo{Name: r.Name, Arity: r.Arity}
	}
	return out
}

// WeightSymbols lists the weight symbols of the database's signature.
func (d *Database) WeightSymbols() []SymbolInfo {
	out := make([]SymbolInfo, len(d.a.Sig.Weights))
	for i, w := range d.a.Sig.Weights {
		out[i] = SymbolInfo{Name: w.Name, Arity: w.Arity}
	}
	return out
}

// SymbolInfo describes one relation or weight symbol of a signature.
type SymbolInfo struct {
	Name  string
	Arity int
}

// Tuples returns the tuples of one relation as fresh slices (nil for an
// unknown relation).
func (d *Database) Tuples(rel string) [][]int {
	ts := d.a.Tuples(rel)
	out := make([][]int, len(ts))
	for i, t := range ts {
		out[i] = append([]int(nil), t...)
	}
	return out
}

// HasTuple reports membership of a tuple in a relation of the loaded
// database (sessions track their own dynamic updates separately).
func (d *Database) HasTuple(rel string, tuple ...int) bool {
	return d.a.HasTuple(rel, tuple...)
}

// Write serialises the database to w in the dbio text format; the output is
// deterministic and round-trips through ReadDatabase.
func (d *Database) Write(w io.Writer) error {
	return dbio.Write(w, d.a, d.w)
}
