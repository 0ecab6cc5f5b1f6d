// Command aggquery evaluates a weighted query on a sparse database and
// reports the query value in several semirings together with statistics
// about the compiled circuit (Theorem 6 of the paper), driving the public
// repro/agg facade the same way an embedding program would.
//
// The database is either generated on the fly (-kind/-n) or read from a file
// or stdin in the dbio text format.  The query is either one of a set of
// predefined queries (-query) or an arbitrary weighted expression in the
// surface syntax (-expr).
//
// Usage:
//
//	aggquery -query triangles -kind grid -n 4096
//	agggen -kind grid -n 4096 | aggquery -stdin -query triangles
//	aggquery -kind bounded-degree -n 2000 \
//	  -expr 'sum x, y . [E(x,y) & S(x)] * w(x,y)'
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/agg"
)

// queries maps the predefined query names to their surface syntax.
var queries = map[string]string{
	"triangles":   "sum x, y, z . [E(x,y) & E(y,z) & E(z,x)] * w(x,y) * w(y,z) * w(z,x)",
	"paths":       "sum x, y, z . [E(x,y) & E(y,z) & !(x = z)] * u(x) * u(z)",
	"edges":       "sum x, y . [E(x,y)] * w(x,y)",
	"heavy-pairs": "sum x, y . [E(x,y) & S(x) & !S(y)] * u(x) * u(y)",
}

func main() {
	query := flag.String("query", "triangles", "predefined query: triangles, paths, edges, heavy-pairs")
	exprText := flag.String("expr", "", "weighted expression in surface syntax (overrides -query)")
	kind := flag.String("kind", "bounded-degree", "generated workload kind (ignored with -stdin/-file)")
	n := flag.Int("n", 2000, "generated database size (ignored with -stdin/-file)")
	seed := flag.Int64("seed", 1, "random seed")
	stdin := flag.Bool("stdin", false, "read the database from stdin (dbio format)")
	file := flag.String("file", "", "read the database from this file (dbio format)")
	analyze := flag.Bool("analyze", false, "print the knowledge-compilation report of the compiled circuit")
	flag.Parse()
	ctx := context.Background()

	eng, err := agg.OpenSource(agg.Source{Stdin: *stdin, Path: *file, Kind: *kind, N: *n, Seed: *seed})
	if err != nil {
		fmt.Fprintf(os.Stderr, "aggquery: %v\n", err)
		os.Exit(1)
	}

	text := *exprText
	if text == "" {
		var ok bool
		if text, ok = queries[*query]; !ok {
			fmt.Fprintf(os.Stderr, "aggquery: unknown query %q (available: triangles, paths, edges, heavy-pairs)\n", *query)
			os.Exit(2)
		}
	}

	// One Prepare pays the Theorem 6 compilation; In rebinds the shared
	// circuit to further semirings without recompiling.
	p, err := eng.Prepare(ctx, text)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aggquery: %v\n", err)
		os.Exit(1)
	}
	db := eng.Database()
	st := p.Stats()
	fmt.Printf("database: n=%d tuples=%d\n", db.Elements(), db.TupleCount())
	fmt.Printf("query: %s\n", p.Canonical())
	fmt.Printf("circuit: gates=%d edges=%d depth=%d permGates=%d maxPermRows=%d\n",
		st.Gates, st.Edges, st.Depth, st.PermGates, st.MaxPermRows)

	if *analyze {
		report, err := agg.Analyze(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aggquery: analyze: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("analysis: variables=%d footprint=%dB decomposable=%v",
			report.Variables, report.FootprintBytes, report.Decomposable)
		if report.DeterminismChecked {
			fmt.Printf(" deterministic=%v", report.Deterministic)
		} else {
			fmt.Printf(" deterministic=unchecked(>%d gates)", agg.DeterminismGateLimit)
		}
		fmt.Println()
		for _, v := range report.DecomposabilityViolations {
			fmt.Printf("analysis: violation: %s\n", v)
		}
		for _, v := range report.DeterminismViolations {
			fmt.Printf("analysis: violation: %s\n", v)
		}
	}

	passes := []struct {
		semiring string
		label    string
	}{
		{"natural", "value in (N,+,·):            "},
		{"minplus", "value in (N∪{∞},min,+):      "},
		{"boolean", "value in (B,∨,∧):            "},
	}
	for _, pass := range passes {
		q, err := p.In(pass.semiring)
		if err == nil {
			var v agg.Value
			if v, err = q.Eval(ctx); err == nil {
				fmt.Println(pass.label + v.String())
				continue
			}
		}
		fmt.Printf("%s<error: %v>\n", pass.label, err)
	}
}
