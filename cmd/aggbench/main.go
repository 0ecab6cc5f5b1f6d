// Command aggbench runs the experiment suite of internal/bench and prints
// each table (plain text by default, Markdown with -markdown).
//
// Usage:
//
//	aggbench [-quick] [-markdown] [-only E2,E5] [-workers 4]
//
// With -workers > 1 the experiments of the sweep run concurrently; use the
// default of 1 when the absolute timings inside the tables matter.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "use reduced problem sizes")
	markdown := flag.Bool("markdown", false, "emit Markdown tables")
	only := flag.String("only", "", "comma-separated experiment ids to run (e.g. E1,E5); empty runs all")
	workers := flag.Int("workers", 1, "experiments run concurrently on this many goroutines (0 = GOMAXPROCS; >1 skews timings)")
	e16check := flag.Bool("e16check", false, "run the E16 re-platformed nested/localsearch comparison as a pass/fail smoke check and exit")
	e17check := flag.Bool("e17check", false, "run the E17 instrumentation-overhead comparison as a pass/fail smoke check and exit")
	e18check := flag.Bool("e18check", false, "run the E18 snapshot-reads-under-writes comparison as a pass/fail smoke check and exit")
	e19check := flag.Bool("e19check", false, "run the E19 fleet scale-out comparison as a pass/fail smoke check and exit")
	e20check := flag.Bool("e20check", false, "run the E20 live-push/ingest comparison as a pass/fail smoke check and exit")
	flag.Parse()

	if *e16check {
		if err := bench.E16Check(); err != nil {
			fmt.Fprintf(os.Stderr, "aggbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *e17check {
		if err := bench.E17Check(); err != nil {
			fmt.Fprintf(os.Stderr, "aggbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *e18check {
		if err := bench.E18Check(); err != nil {
			fmt.Fprintf(os.Stderr, "aggbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *e19check {
		if err := bench.E19Check(); err != nil {
			fmt.Fprintf(os.Stderr, "aggbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *e20check {
		if err := bench.E20Check(); err != nil {
			fmt.Fprintf(os.Stderr, "aggbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	wanted := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		id = strings.TrimSpace(id)
		if id != "" {
			wanted[strings.ToUpper(id)] = true
		}
	}

	var selected []bench.Experiment
	for _, e := range bench.Registry(*quick) {
		if len(wanted) > 0 && !wanted[e.ID] {
			continue
		}
		selected = append(selected, e)
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "aggbench: no experiment matched -only=%q\n", *only)
		os.Exit(1)
	}
	print := func(t *bench.Table) {
		if *markdown {
			fmt.Println(t.Markdown())
		} else {
			fmt.Println(t.String())
		}
	}
	if *workers == 1 {
		// Sequential sweeps stream each table as its experiment finishes.
		for _, e := range selected {
			print(e.Run())
		}
		return
	}
	for _, t := range bench.RunExperiments(selected, *workers) {
		print(t)
	}
}
