package dbio

import (
	"fmt"
	"io"
	"os"

	"repro/internal/workload"
)

// Source describes where a database comes from: an explicit reader, stdin, a
// file in the dbio text format, or a generated synthetic workload.  It is the
// shared backing of the -stdin/-file/-kind/-n flags of the command-line
// tools and of the databases mounted by cmd/aggserve.
type Source struct {
	// Reader, when non-nil, takes precedence over every other field.
	Reader io.Reader
	// Stdin reads the database from os.Stdin.
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
	// per-kind default (3 for bounded-degree and forest, 2 for pref-attach).
	Degree int
	// Seed is the random seed of the generator.
	Seed int64
}

// Generate builds the synthetic workload described by Kind/N/Degree/Seed.
func (src Source) Generate() (*workload.Database, error) {
	n := src.N
	if n < 0 {
		return nil, fmt.Errorf("dbio: negative workload size %d", n)
	}
	side := 1
	for side*side < n {
		side++
	}
	switch src.Kind {
	case "bounded-degree":
		return workload.BoundedDegree(n, src.degreeOr(3), src.Seed), nil
	case "grid":
		return workload.Grid(side, side, src.Seed), nil
	case "forest":
		return workload.Forest(n, src.degreeOr(3), src.Seed), nil
	case "pref-attach":
		return workload.PreferentialAttachment(n, src.degreeOr(2), src.Seed), nil
	case "road":
		return workload.RoadNetwork(side, side, n/10, src.Seed), nil
	case "nested":
		return workload.NestedAgg(n, src.degreeOr(3), src.Seed), nil
	case "search":
		return workload.Search(n, src.degreeOr(3), src.Seed), nil
	default:
		return nil, fmt.Errorf("dbio: unknown workload kind %q (available: bounded-degree, grid, forest, pref-attach, road, nested, search)", src.Kind)
	}
}

func (src Source) degreeOr(def int) int {
	if src.Degree > 0 {
		return src.Degree
	}
	return def
}

// LoadSource loads a database from the described source.  Readers, stdin and
// files are parsed in the dbio text format; otherwise the workload generator
// selected by Kind runs.
func LoadSource(src Source) (*Database, error) {
	switch {
	case src.Reader != nil:
		return Read(src.Reader)
	case src.Stdin:
		return Read(os.Stdin)
	case src.Path != "":
		return ReadFile(src.Path)
	default:
		db, err := src.Generate()
		if err != nil {
			return nil, err
		}
		return &Database{A: db.A, W: db.Weights()}, nil
	}
}
