// Command aggenum enumerates the answers of a first-order query on a sparse
// database with constant delay (Theorem 24 of the paper), through the public
// repro/agg facade.
//
// The database is generated on the fly (-kind/-n) or read from a file or
// stdin in the dbio text format; the query is a first-order formula in the
// surface syntax.
//
// Usage:
//
//	aggenum -kind grid -n 4096 -phi 'E(x,y) & E(y,z) & E(z,x)' -vars x,y,z -limit 10
//	agggen -kind bounded-degree -n 10000 | aggenum -stdin \
//	    -phi 'S(x) & !S(y) & E(x,y)' -vars x,y -count
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/agg"
)

func main() {
	phiText := flag.String("phi", "E(x,y) & E(y,z) & E(z,x)", "first-order formula in surface syntax")
	varsText := flag.String("vars", "x,y,z", "comma-separated answer variables")
	kind := flag.String("kind", "bounded-degree", "generated workload kind (ignored with -stdin/-file)")
	n := flag.Int("n", 2000, "generated database size (ignored with -stdin/-file)")
	seed := flag.Int64("seed", 1, "random seed")
	stdin := flag.Bool("stdin", false, "read the database from stdin (dbio format)")
	file := flag.String("file", "", "read the database from this file (dbio format)")
	limit := flag.Int("limit", 20, "print at most this many answers (0 prints none)")
	countOnly := flag.Bool("count", false, "only report the number of answers and timing")
	flag.Parse()
	ctx := context.Background()

	eng, err := agg.OpenSource(agg.Source{Stdin: *stdin, Path: *file, Kind: *kind, N: *n, Seed: *seed})
	if err != nil {
		fmt.Fprintf(os.Stderr, "aggenum: %v\n", err)
		os.Exit(1)
	}
	vars := splitVars(*varsText)
	if len(vars) == 0 {
		fmt.Fprintf(os.Stderr, "aggenum: -vars must list at least one variable\n")
		os.Exit(2)
	}

	// Prepare pays the linear-time preprocessing (compilation plus the
	// enumerator's one pass over the circuit); answers then stream with
	// constant delay.
	start := time.Now()
	p, err := eng.Prepare(ctx, *phiText, agg.WithAnswerVars(vars...))
	if err != nil {
		fmt.Fprintf(os.Stderr, "aggenum: %v\n", err)
		os.Exit(1)
	}
	preprocess := time.Since(start)

	db := eng.Database()
	fmt.Printf("database: n=%d tuples=%d\n", db.Elements(), db.TupleCount())
	fmt.Printf("query:    %s   answers over (%s)\n", p.Canonical(), strings.Join(p.AnswerVars(), ", "))
	fmt.Printf("preprocessing: %v\n", preprocess)

	start = time.Now()
	count, err := p.AnswerCount(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aggenum: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("answers: %d (counted in %v)\n", count, time.Since(start))

	if *countOnly || *limit == 0 {
		return
	}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	printed := 0
	start = time.Now()
	for ans, err := range p.Enumerate(ctx) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "aggenum: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(out, "  %v\n", []int(ans))
		if printed++; printed >= *limit {
			break
		}
	}
	elapsed := time.Since(start)
	if printed > 0 {
		fmt.Fprintf(out, "enumerated %d answers in %v (%.1fµs per answer)\n",
			printed, elapsed, float64(elapsed.Microseconds())/float64(printed))
	}
}

func splitVars(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		v = strings.TrimSpace(v)
		if v != "" {
			out = append(out, v)
		}
	}
	return out
}
