package agg

import (
	"context"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

func TestAnalyzeExpression(t *testing.T) {
	eng := testEngine(t)
	ctx := context.Background()

	p, err := eng.Prepare(ctx, edgeSum)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	report, err := Analyze(p)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	st := p.Stats()
	if report.Gates != st.Gates || report.Wires != st.Edges || report.Depth != st.Depth {
		t.Errorf("report sizes %d/%d/%d disagree with Stats %d/%d/%d",
			report.Gates, report.Wires, report.Depth, st.Gates, st.Edges, st.Depth)
	}
	if !report.Decomposable {
		t.Errorf("edge sum not decomposable: %v", report.DecomposabilityViolations)
	}
	if !report.DeterminismChecked {
		t.Errorf("tiny program skipped the determinism check")
	}
	if !report.Deterministic {
		t.Errorf("edge sum not deterministic: %v", report.DeterminismViolations)
	}
	// 4 edge weights feed the sum.
	if report.Variables != 4 {
		t.Errorf("Variables = %d, want 4", report.Variables)
	}
	if report.ModelCount != "" || report.Factorization != nil {
		t.Errorf("expression-mode report has answer-set fields: %+v", report)
	}
	if report.FootprintBytes <= 0 {
		t.Errorf("FootprintBytes = %d, want > 0", report.FootprintBytes)
	}
}

// TestAnalyzeFormulaCountsModels holds the model count of a formula's report
// to its answer count, also when a relation is dynamic: Lemma 40's
// membership inputs of the relations that do not hold count no answers.
func TestAnalyzeFormulaCountsModels(t *testing.T) {
	eng := testEngine(t)
	ctx := context.Background()

	for _, query := range []string{"E(x,y) & S(x)", "E(x,y) & !S(x)"} {
		for _, dynamic := range []string{"", "S", "E"} {
			var opts []Option
			if dynamic != "" {
				opts = append(opts, WithDynamic(dynamic))
			}
			p, err := eng.Prepare(ctx, query, opts...)
			if err != nil {
				t.Fatalf("Prepare(%s): %v", query, err)
			}
			report, err := Analyze(p)
			if err != nil {
				t.Fatalf("Analyze(%s): %v", query, err)
			}
			want, err := p.AnswerCount(ctx)
			if err != nil {
				t.Fatalf("AnswerCount(%s): %v", query, err)
			}
			if report.ModelCount != strconv.FormatInt(want, 10) {
				t.Errorf("%s, dynamic %q: ModelCount = %q, AnswerCount = %d", query, dynamic, report.ModelCount, want)
			}
			if report.Factorization == nil {
				t.Fatalf("%s: formula-mode report has no factorization", query)
			}
			if report.Factorization.Arity != 2 {
				t.Errorf("%s: Factorization.Arity = %d, want 2", query, report.Factorization.Arity)
			}
			if report.Factorization.FlatCells != strconv.FormatInt(2*want, 10) {
				t.Errorf("%s: FlatCells = %q, want %d", query, report.Factorization.FlatCells, 2*want)
			}
		}
	}
}

func TestAnalyzeNested(t *testing.T) {
	eng := testEngine(t)
	ctx := context.Background()

	// Boolean nested queries with free variables have an enumeration program
	// to analyse.
	q := NGuard("S", []string{"x"}, ConnGreaterThan, outWeight(), NConst(3))
	p, err := eng.Prepare(ctx, "heavy marked", WithNested(q))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	report, err := Analyze(p)
	if err != nil {
		t.Fatalf("Analyze enumerable nested: %v", err)
	}
	if report.ModelCount != "1" {
		t.Errorf("nested ModelCount = %q, want 1", report.ModelCount)
	}

	// A semiring-valued nested query is a flat query over its materialised
	// database, with one program like any other.
	sumQ := NSum([]string{"x", "y"},
		NTimes(NBracket(NAtom("E", "x", "y")), NWeight("w", "x", "y")))
	p2, err := eng.Prepare(ctx, "nested edge sum", WithNested(sumQ))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	report, err = Analyze(p2)
	if err != nil {
		t.Fatalf("Analyze semiring-valued nested: %v", err)
	}
	if report.Gates == 0 || report.Variables != 4 || report.ModelCount != "" {
		t.Errorf("nested edge sum report %+v; want a program over the 4 edge weights and no model count", report)
	}
	if dot, err := DOT(p2); err != nil || !strings.HasPrefix(dot, "digraph") {
		t.Errorf("DOT of nested edge sum = %.20q, %v", dot, err)
	}
	if st := p2.Stats(); st.Gates != report.Gates || p2.Footprint() != report.FootprintBytes || p2.Footprint() <= 0 {
		t.Errorf("Stats %+v and Footprint %d disagree with the report %+v", st, p2.Footprint(), report)
	}
}

// TestAnalyzeAndDOTGolden pins what Analyze and DOT present for queries with
// a dynamic relation, whose membership inputs render as rel+:S(a) and
// rel-:S(a).  The files under testdata were written when those inputs were
// still weights named by a prefix; since the role is a field, the same text
// must come from the role.
func TestAnalyzeAndDOTGolden(t *testing.T) {
	for _, tc := range []struct{ query, name string }{
		{"E(x,y) & S(x)", "dynamic"},
		{"E(x,y) & S(x) & !S(y)", "dynamic_negated"},
	} {
		p, err := testEngine(t).Prepare(context.Background(), tc.query, WithDynamic("S"))
		if err != nil {
			t.Fatalf("Prepare(%q): %v", tc.query, err)
		}
		report, err := Analyze(p)
		if err != nil {
			t.Fatalf("Analyze: %v", err)
		}
		dot, err := DOT(p)
		if err != nil {
			t.Fatalf("DOT: %v", err)
		}
		// The footprint measures the program, not its presentation: it moves
		// with what a key holds.
		if report.FootprintBytes != p.Footprint() || report.FootprintBytes <= 0 {
			t.Errorf("%q: FootprintBytes %d, Footprint %d", tc.query, report.FootprintBytes, p.Footprint())
		}
		file := "testdata/analyze_" + tc.name + ".json"
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("reading %s: %v", file, err)
		}
		var golden Analysis
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatalf("decoding %s: %v", file, err)
		}
		report.FootprintBytes = golden.FootprintBytes
		js, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		if got := string(js) + "\n"; got != string(raw) {
			t.Errorf("%q: Analyze differs from %s:\n got %s\nwant %s", tc.query, file, got, raw)
		}
		file = "testdata/dot_" + tc.name + ".dot"
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("reading %s: %v", file, err)
		}
		if dot != string(want) {
			t.Errorf("%q: DOT differs from %s:\n got %s\nwant %s", tc.query, file, dot, want)
		}
	}
}
