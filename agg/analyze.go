package agg

import (
	"context"

	"repro/internal/kc"
)

// Analysis is the knowledge-compilation report of a prepared query: the
// structural properties of its frozen circuit program in the vocabulary of
// compilation targets (decomposability, determinism, model counting,
// factorized representations).  It is produced by Analyze and serialises to
// the JSON shape served by aggserve's GET /analyze.
type Analysis struct {
	// Query and Semiring identify the analysed compilation.
	Query    string `json:"query"`
	Semiring string `json:"semiring"`

	// Gates, Wires, Inputs and Depth size the frozen program; Variables
	// counts the distinct weight inputs the output depends on.
	// FootprintBytes is the resident size of the CSR arrays.
	Gates          int   `json:"gates"`
	Wires          int   `json:"wires"`
	Inputs         int   `json:"inputs"`
	Depth          int   `json:"depth"`
	Variables      int   `json:"variables"`
	FootprintBytes int64 `json:"footprintBytes"`

	// Decomposable reports whether every product combines sub-circuits over
	// disjoint variable sets (the d-DNNF condition that makes model counting
	// and enumeration linear); violations list the offending gates.
	Decomposable              bool     `json:"decomposable"`
	DecomposabilityViolations []string `json:"decomposabilityViolations,omitempty"`

	// Deterministic reports whether every sum combines disjoint models.  The
	// check evaluates one free-semiring polynomial per gate, so it only runs
	// on programs of at most DeterminismGateLimit gates; DeterminismChecked
	// records whether it ran.
	DeterminismChecked    bool     `json:"determinismChecked"`
	Deterministic         bool     `json:"deterministic"`
	DeterminismViolations []string `json:"determinismViolations,omitempty"`

	// ModelCount is the number of answers represented by an enumerable
	// query's program ("" for expression-mode queries, whose models are not
	// answer tuples), and Factorization relates the program's size to the
	// flat answer table it replaces.
	ModelCount    string         `json:"modelCount,omitempty"`
	Factorization *Factorization `json:"factorization,omitempty"`
}

// Factorization compares a program against the flat table of its answers,
// measuring how much the circuit representation compresses.
type Factorization struct {
	// CircuitSize is gates plus wires.
	CircuitSize int `json:"circuitSize"`
	// Answers is the number of answer tuples the program represents.
	Answers string `json:"answers"`
	// Arity is the answer arity.
	Arity int `json:"arity"`
	// FlatCells is Answers × Arity, the cell count of the flat table.
	FlatCells string `json:"flatCells"`
	// CompressionRatio is FlatCells / CircuitSize (0 when it overflows or
	// the circuit is empty).
	CompressionRatio float64 `json:"compressionRatio"`
}

// DeterminismGateLimit bounds the program size on which Analyze runs the
// determinism check, which is quadratic-ish in gates × variables; beyond it
// DeterminismChecked is false and Deterministic is unreported.
const DeterminismGateLimit = 1 << 13

// maxReportedViolations caps the violation lists of an Analysis; the counts
// are complete, the examples are the first few in gate order.
const maxReportedViolations = 8

// Analyze inspects the frozen circuit program behind a prepared query and
// reports its knowledge-compilation properties.  It works for every Prepared;
// of a nested query it sees the program of the flat query its materialisation
// left.  The analysis reads the shared frozen artefact, so it is safe to run
// concurrently with evaluations, sessions and enumerations of the same
// Prepared.
func Analyze(p *Prepared) (*Analysis, error) {
	prog := p.sh.Result().Program
	an := kc.Analyze(prog)
	st := prog.Stats()

	report := &Analysis{
		Query:          p.text,
		Semiring:       p.SemiringName(),
		Gates:          st.Gates,
		Wires:          st.Edges,
		Inputs:         st.InputGates,
		Depth:          st.Depth,
		Variables:      an.DependencyCount(prog.OutputGate()),
		FootprintBytes: prog.Footprint(),
	}

	dviol := an.CheckDecomposable()
	report.Decomposable = len(dviol) == 0
	report.DecomposabilityViolations = violationStrings(dviol)

	if prog.NumGates() <= DeterminismGateLimit {
		report.DeterminismChecked = true
		tviol := an.CheckDeterministic()
		report.Deterministic = len(tviol) == 0
		report.DeterminismViolations = violationStrings(tviol)
	}

	if p.enum != nil {
		count, err := p.AnswerCount(context.Background())
		if err != nil {
			return nil, err
		}
		fr := kc.Factorization(prog, count, p.enum.ans.Shared().Arity())
		report.ModelCount = fr.Answers.String()
		report.Factorization = &Factorization{
			CircuitSize:      fr.CircuitSize,
			Answers:          fr.Answers.String(),
			Arity:            fr.Arity,
			FlatCells:        fr.FlatCells.String(),
			CompressionRatio: fr.CompressionRatio,
		}
	}
	return report, nil
}

// DOT renders the frozen circuit program behind a prepared query in Graphviz
// dot format, for visual inspection of small circuits.
func DOT(p *Prepared) (string, error) {
	return kc.DOT(p.sh.Result().Program), nil
}

func violationStrings(vs []kc.Violation) []string {
	if len(vs) == 0 {
		return nil
	}
	out := make([]string, 0, min(len(vs), maxReportedViolations))
	for _, v := range vs[:cap(out)] {
		out = append(out, v.String())
	}
	return out
}
