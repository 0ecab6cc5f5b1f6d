package nested

import (
	"fmt"

	"repro/internal/compile"
	"repro/internal/enumerate"
	"repro/internal/structure"
)

// The tests read a formula the way agg does — Compile, then a flat engine
// over the Stage — with the carrier left erased: Stage.At for values,
// enumerate.EnumerateAnswers for the answers of a boolean formula.

func evalAt(db *Database, f Formula, vars []string, tuples []structure.Tuple) ([]any, error) {
	st, err := Compile(db, f, compile.Options{})
	if err != nil {
		return nil, err
	}
	return st.At(vars, tuples, compile.Options{})
}

func evalClosed(db *Database, f Formula) (any, error) {
	vals, err := evalAt(db, f, nil, []structure.Tuple{{}})
	if err != nil {
		return nil, err
	}
	return vals[0], nil
}

func enumerateBool(db *Database, f Formula, vars []string) (*enumerate.Answers, error) {
	st, err := Compile(db, f, compile.Options{})
	if err != nil {
		return nil, err
	}
	if st.Phi == nil {
		return nil, fmt.Errorf("enumeration needs a boolean-valued formula, got %s-valued", st.Out.Name())
	}
	return enumerate.EnumerateAnswers(st.A, st.Phi, vars, compile.Options{})
}
