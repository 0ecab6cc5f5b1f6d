package agg

import (
	"context"
	"errors"
	"iter"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// errDiskFull is what failingWriter returns.
var errDiskFull = errors.New("disk full")

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errDiskFull }

// firstErr drains seq and returns the first error it yields.
func firstErr[T any](seq iter.Seq2[T, error]) error {
	for _, err := range seq {
		if err != nil {
			return err
		}
	}
	return nil
}

// apiFunc matches a function or method line of api/agg.txt: its receiver
// type, its name and what follows the name.
var apiFunc = regexp.MustCompile(`^func (?:\(\w+ \*?(\w+)\) )?(\w+)(.*)$`)

// errorFuncs lists the functions of api/agg.txt that return an error, as
// "Name" or "Type.Name": those whose results, after the parameter list,
// mention error.  Error.Error and Error.Unwrap describe an error; they do
// not fail.
func errorFuncs(t *testing.T) []string {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "api", "agg.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(string(doc), "\n") {
		m := apiFunc.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := m[2]
		if m[1] != "" {
			name = m[1] + "." + name
		}
		if name == "Error.Error" || name == "Error.Unwrap" || !strings.Contains(results(m[3]), "error") {
			continue
		}
		names = append(names, name)
	}
	return names
}

// results returns what follows the parameter list that opens sig.
func results(sig string) string {
	depth := 0
	for i, r := range sig {
		switch r {
		case '(':
			depth++
		case ')':
			if depth--; depth == 0 {
				return sig[i+1:]
			}
		}
	}
	return ""
}

// TestEveryErrorIsCoded holds the error contract at the package boundary:
// every function of api/agg.txt that returns an error, given one bad input,
// fails with an error of the taxonomy (ErrorCode is not "error").  A function
// that cannot fail is listed with its probe returning nil.  A function added
// to the API without a row fails the test.
func TestEveryErrorIsCoded(t *testing.T) {
	ctx := context.Background()
	eng := testEngine(t)
	expr, err := eng.Prepare(ctx, edgeSum)
	if err != nil {
		t.Fatal(err)
	}
	point, err := eng.Prepare(ctx, "sum y . [E(x,y)] * w(x,y)")
	if err != nil {
		t.Fatal(err)
	}
	formula, err := eng.Prepare(ctx, "E(x,y) & S(x)")
	if err != nil {
		t.Fatal(err)
	}
	search, err := prepareMIS(t).Search()
	if err != nil {
		t.Fatal(err)
	}
	// open draws a session on point, and closed one that is closed already.
	open := func() *Session {
		s, err := point.Session()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	closed := func() *Session {
		s := open()
		s.Close()
		return s
	}
	// closedReader is a Reader of a formula's session, closed.
	closedReader := func() *Reader {
		s, err := formula.Session()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		r, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		r.Close()
		return r
	}
	missing := filepath.Join(t.TempDir(), "missing.db")
	weight := Change{Weight: "w", Tuple: []int{0, 1}, Value: 7}

	probes := map[string]struct {
		probe      func() error
		infallible bool  // no input makes it fail; the probe returns nil
		cause      error // a cause the error must keep, if any
	}{
		"Canonicalize":        {probe: func() error { _, err := Canonicalize("sum x , . [E(x,y)]"); return err }},
		"CanonicalizeFormula": {probe: func() error { _, err := CanonicalizeFormula(edgeSum); return err }},
		"DOT":                 {probe: func() error { _, err := DOT(expr); return err }, infallible: true},
		"Register":            {probe: func() error { return Register(nil) }},
		"Analyze":             {probe: func() error { _, err := Analyze(formula); return err }, infallible: true},
		"Generate":            {probe: func() error { _, err := Generate("nope", 10, 1); return err }},
		"Load":                {probe: func() error { _, err := Load(Source{Kind: "nope", N: 10}); return err }},
		"ReadDatabase": {probe: func() error {
			_, err := ReadDatabase(strings.NewReader("domain 3\nrel E 2\nE 0\n"))
			return err
		}},
		"ReadDatabaseFile": {probe: func() error { _, err := ReadDatabaseFile(missing); return err }, cause: os.ErrNotExist},
		"Database.Write": {probe: func() error {
			return eng.Database().Write(failingWriter{})
		}, cause: errDiskFull},
		"OpenFile": {probe: func() error { _, err := OpenFile(missing); return err }, cause: os.ErrNotExist},
		"OpenReader": {probe: func() error {
			_, err := OpenReader(strings.NewReader("domain 3\nrel E 2\nE 0 9\n"))
			return err
		}},
		"OpenSource":           {probe: func() error { _, err := OpenSource(Source{Kind: "nope", N: 10}); return err }},
		"Engine.Prepare":       {probe: func() error { _, err := eng.Prepare(ctx, "sum x . [Nope(x)] * u(x)"); return err }},
		"Prepared.AnswerCount": {probe: func() error { _, err := expr.AnswerCount(ctx); return err }},
		"Prepared.Enumerate":   {probe: func() error { return firstErr(expr.Enumerate(ctx)) }},
		"Prepared.Eval":        {probe: func() error { _, err := point.Eval(ctx, 0, 1); return err }},
		"Prepared.In":          {probe: func() error { _, err := expr.In("nope"); return err }},
		"Prepared.Search":      {probe: func() error { _, err := expr.Search(); return err }},
		"Prepared.Session":     {probe: func() error { _, err := expr.Session(); return err }, infallible: true},
		"Reader.AnswerCount":   {probe: func() error { _, err := closedReader().AnswerCount(ctx); return err }},
		"Reader.Close": {probe: func() error {
			r := closedReader()
			return r.Close()
		}, infallible: true},
		"Reader.Enumerate":   {probe: func() error { return firstErr(closedReader().Enumerate(ctx)) }},
		"Reader.Eval":        {probe: func() error { _, err := closedReader().Eval(ctx); return err }},
		"Searcher.Apply":     {probe: func() error { return search.Apply(weight) }},
		"Searcher.Run":       {probe: func() error { _, err := search.Run(ctx, func(Answer) []Change { return []Change{weight} }); return err }},
		"LookupSemiring":     {probe: func() error { _, err := LookupSemiring("nope"); return err }},
		"Session.ApplyBatch": {probe: func() error { return open().ApplyBatch([]Change{{Rel: "Nope", Tuple: []int{0}}}) }},
		"Session.Close":      {probe: func() error { return closed().Close() }, infallible: true},
		"Session.Eval":       {probe: func() error { _, err := open().Eval(ctx); return err }},
		"Session.Set":        {probe: func() error { return open().Set(Change{}) }},
		"Session.Snapshot":   {probe: func() error { _, err := closed().Snapshot(); return err }},
		"Session.Subscribe": {probe: func() error {
			sub, cancel := context.WithTimeout(ctx, 10*time.Second)
			defer cancel()
			return firstErr(closed().Subscribe(sub))
		}},
	}

	names := errorFuncs(t)
	for name := range probes {
		if !slices.Contains(names, name) {
			t.Errorf("%s is probed but api/agg.txt lists no such function returning an error", name)
		}
	}
	for _, name := range names {
		p, ok := probes[name]
		if !ok {
			t.Errorf("%s returns an error but has no probe", name)
			continue
		}
		err := p.probe()
		switch {
		case p.infallible && err != nil:
			t.Errorf("%s: %v, want nil", name, err)
		case !p.infallible && err == nil:
			t.Errorf("%s: nil error on a bad input", name)
		case ErrorCode(err) == "error":
			t.Errorf("%s: %v has code %q, want a taxonomy kind", name, err, ErrorCode(err))
		case p.cause != nil && !errors.Is(err, p.cause):
			t.Errorf("%s: %v lost its cause %v", name, err, p.cause)
		}
	}
}
