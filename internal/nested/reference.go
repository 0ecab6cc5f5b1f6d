package nested

import (
	"fmt"

	"repro/internal/structure"
)

// ReferenceEvalClosed evaluates a closed formula by direct recursion over the
// FOG[C] semantics, without compiling anything.  It enumerates all variable
// assignments explicitly, so it is exponential in quantifier depth and meant
// purely as a differential-testing oracle for Compile.
func ReferenceEvalClosed(db *Database, f Formula) (any, error) {
	if err := db.check(f); err != nil {
		return nil, err
	}
	if vars := freeVars(f); len(vars) != 0 {
		return nil, fmt.Errorf("nested: formula has free variables %v; use ReferenceEvalAt", vars)
	}
	return referenceEval(db, f, map[string]structure.Element{})
}

// ReferenceEvalAt evaluates a formula under the given variable assignment by
// direct recursion (see ReferenceEvalClosed).
func ReferenceEvalAt(db *Database, f Formula, env map[string]structure.Element) (any, error) {
	if err := db.check(f); err != nil {
		return nil, err
	}
	for _, v := range freeVars(f) {
		if _, ok := env[v]; !ok {
			return nil, fmt.Errorf("nested: free variable %q is not assigned", v)
		}
	}
	return referenceEval(db, f, env)
}

func referenceEval(db *Database, f Formula, env map[string]structure.Element) (any, error) {
	switch g := f.(type) {
	case BRel:
		t, err := resolveArgs(g.Args, env)
		if err != nil {
			return nil, err
		}
		return db.A.HasTuple(g.Rel, t...), nil
	case SRel:
		t, err := resolveArgs(g.Args, env)
		if err != nil {
			return nil, err
		}
		return db.Value(g.Rel, t), nil
	case ConstF:
		return g.Value, nil
	case Not:
		v, err := referenceEval(db, g.Arg, env)
		if err != nil {
			return nil, err
		}
		return !v.(bool), nil
	case BinOp:
		l, err := referenceEval(db, g.L, env)
		if err != nil {
			return nil, err
		}
		r, err := referenceEval(db, g.R, env)
		if err != nil {
			return nil, err
		}
		s := g.Out()
		if g.Mul {
			return s.Mul(l, r), nil
		}
		return s.Add(l, r), nil
	case SumAgg:
		s := g.Out()
		acc := s.Zero()
		inner := map[string]structure.Element{}
		for k, v := range env {
			inner[k] = v
		}
		var sweep func(i int) error
		sweep = func(i int) error {
			if i == len(g.Vars) {
				v, err := referenceEval(db, g.Arg, inner)
				if err != nil {
					return err
				}
				acc = s.Add(acc, v)
				return nil
			}
			for e := 0; e < db.A.N; e++ {
				inner[g.Vars[i]] = structure.Element(e)
				if err := sweep(i + 1); err != nil {
					return err
				}
			}
			return nil
		}
		if err := sweep(0); err != nil {
			return nil, err
		}
		return acc, nil
	case Iverson:
		v, err := referenceEval(db, g.Arg, env)
		if err != nil {
			return nil, err
		}
		if v.(bool) {
			return g.S.One(), nil
		}
		return g.S.Zero(), nil
	case Guarded:
		t, err := resolveArgs(g.GuardArgs, env)
		if err != nil {
			return nil, err
		}
		if !db.A.HasTuple(g.GuardRel, t...) {
			return g.Conn.Out.Zero(), nil
		}
		args := make([]any, len(g.Args))
		for i, arg := range g.Args {
			v, err := referenceEval(db, arg, env)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return g.Conn.Apply(args), nil
	default:
		return nil, fmt.Errorf("nested: unknown formula type %T", f)
	}
}

func resolveArgs(args []string, env map[string]structure.Element) (structure.Tuple, error) {
	t := make(structure.Tuple, len(args))
	for i, v := range args {
		e, ok := env[v]
		if !ok {
			return nil, fmt.Errorf("nested: variable %q is not assigned", v)
		}
		t[i] = e
	}
	return t, nil
}
