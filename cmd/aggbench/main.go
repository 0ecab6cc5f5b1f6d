// Command aggbench runs the experiment suite of internal/bench and prints
// each table (plain text by default, Markdown with -markdown).
//
// Usage:
//
//	aggbench [-quick] [-markdown] [-only E2,E5] [-workers 4]
//	aggbench -check E16,E19     (or -check all: the pass/fail gates CI runs)
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
	check := flag.String("check", "", "run the pass/fail gates of these experiments (e.g. E16,E19, or all for every experiment that has one) and exit")
	flag.Parse()

	if *check != "" {
		wanted := idSet(*check)
		all := wanted["ALL"]
		delete(wanted, "ALL")
		failed := false
		for _, e := range bench.Registry(*quick) {
			if e.Check == nil || !(all || wanted[e.ID]) {
				continue
			}
			delete(wanted, e.ID)
			if err := e.Check(); err != nil {
				fmt.Fprintf(os.Stderr, "aggbench: %v\n", err)
				failed = true
			}
		}
		for id := range wanted {
			fmt.Fprintf(os.Stderr, "aggbench: -check: experiment %s does not exist or has no gate\n", id)
			failed = true
		}
		if failed {
			os.Exit(1)
		}
		return
	}

	wanted := idSet(*only)
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

// idSet parses a comma-separated list of experiment ids, upper-cased.
func idSet(list string) map[string]bool {
	ids := map[string]bool{}
	for _, id := range strings.Split(list, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids[strings.ToUpper(id)] = true
		}
	}
	return ids
}
