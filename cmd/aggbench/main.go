// Command aggbench runs the experiment suite of internal/bench and prints
// each table (plain text by default, Markdown with -markdown).
//
// Usage:
//
//	aggbench [-quick] [-markdown] [-only E2,E5]
//
// Experiments run one after another and each table is printed as soon as
// its experiment finishes, so no two experiments share the machine's time.
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
	flag.Parse()

	wanted := idSet(*only)
	ran := 0
	for _, e := range bench.Registry(*quick) {
		if len(wanted) > 0 && !wanted[e.ID] {
			continue
		}
		if t := e.Run(); *markdown {
			fmt.Println(t.Markdown())
		} else {
			fmt.Println(t.String())
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "aggbench: no experiment matched -only=%q\n", *only)
		os.Exit(1)
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
