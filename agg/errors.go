package agg

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/parser"
	"repro/internal/qe"
)

// The error taxonomy of the facade.  Every error returned by this package
// matches exactly one of these sentinels under errors.Is, and wraps position
// and query metadata reachable with errors.As(&aggErr) for *agg.Error.
// Callers branch on kinds, not on message substrings; the aggserve HTTP
// layer maps kinds to status codes and machine-readable JSON error codes.
var (
	// ErrParse marks query text that is not valid surface syntax (neither a
	// weighted expression nor a first-order formula).  The *Error carries the
	// byte offset of the failure.
	ErrParse = errors.New("parse error")
	// ErrCompile marks queries that parse but cannot be compiled against the
	// database (unknown symbols, arity mismatches, MaxVars overruns, ...).
	ErrCompile = errors.New("compile error")
	// ErrUnknownSemiring marks a semiring name absent from the registry.
	ErrUnknownSemiring = errors.New("unknown semiring")
	// ErrUnknownDatabase marks a database name that is not mounted (used by
	// multi-database frontends such as aggserve).
	ErrUnknownDatabase = errors.New("unknown database")
	// ErrUnknownSession marks an operation on a session name that does not
	// exist.
	ErrUnknownSession = errors.New("unknown session")
	// ErrSessionExists marks an attempt to create a session under a name
	// that is already taken.
	ErrSessionExists = errors.New("session already exists")
	// ErrSessionBusy marks a session write attempted while another write
	// holds the session.  Writes fail fast instead of queueing; callers that
	// want queueing serialise with their own lock.
	ErrSessionBusy = errors.New("session busy")
	// ErrSessionClosed marks an operation on a closed session.
	ErrSessionClosed = errors.New("session closed")
	// ErrArgument marks malformed request arguments: wrong point-query
	// arity, answer variables not covering the formula's free variables, a
	// missing expression, an invalid limit, ...
	ErrArgument = errors.New("invalid argument")
	// ErrUpdate marks an update that names no (or both) weight and relation,
	// an unknown symbol, a non-dynamic relation, or a Gaifman-violating
	// insertion.
	ErrUpdate = errors.New("invalid update")
	// ErrNotEnumerable marks Enumerate on a prepared query that is a
	// weighted expression rather than a first-order formula.
	ErrNotEnumerable = errors.New("query is not enumerable")
)

// Error is the concrete error type of the facade: a kind from the taxonomy
// above plus the query text and, for parse errors, the byte offset at which
// the failure was detected.  It matches its Kind (and its cause) under
// errors.Is, so both
//
//	errors.Is(err, agg.ErrParse)
//
// and
//
//	var aggErr *agg.Error
//	errors.As(err, &aggErr) // aggErr.Pos, aggErr.Query
//
// work through arbitrary wrapping.
type Error struct {
	// Kind is the taxonomy sentinel this error matches.
	Kind error
	// Query is the query text the error refers to ("" when not applicable).
	Query string
	// Pos is the byte offset into Query at which the error was detected, or
	// -1 when unknown.
	Pos int
	// Err is the underlying cause (may be nil).
	Err error
}

func (e *Error) Error() string {
	if e.Err == nil {
		return e.Kind.Error()
	}
	msg := e.Err.Error()
	// Make the kind visible unless the cause already names it.
	if !strings.Contains(msg, e.Kind.Error()) {
		msg = e.Kind.Error() + ": " + msg
	}
	return msg
}

// Unwrap exposes both the kind and the cause, so errors.Is matches either.
func (e *Error) Unwrap() []error {
	if e.Err == nil {
		return []error{e.Kind}
	}
	return []error{e.Kind, e.Err}
}

// newError wraps err under the given taxonomy kind, extracting the byte
// offset when the cause is a parser error or a quantifier-elimination
// fragment rejection (whose position is the offending quantifier).
func newError(kind error, query string, err error) *Error {
	pos := -1
	var perr *parser.Error
	var qerr *qe.Error
	switch {
	case errors.As(err, &perr):
		pos = perr.Pos
	case errors.As(err, &qerr):
		pos = quantifierPos(query, qerr.Var)
	}
	return &Error{Kind: kind, Query: query, Pos: pos, Err: err}
}

// quantifierPos locates the surface-syntax quantifier binding v in the query
// text, so fragment rejections from quantifier elimination point at the
// quantifier they refer to; -1 when it cannot be located.
func quantifierPos(query, v string) int {
	if v == "" {
		return -1
	}
	for _, kw := range []string{"exists", "forall"} {
		from := 0
		for {
			i := strings.Index(query[from:], kw)
			if i < 0 {
				break
			}
			i += from
			rest := query[i+len(kw):]
			if dot := strings.IndexByte(rest, '.'); dot >= 0 {
				binders := strings.FieldsFunc(rest[:dot], func(r rune) bool {
					return r == ',' || r == ' ' || r == '\t' || r == '\n'
				})
				for _, b := range binders {
					if b == v {
						return i
					}
				}
			}
			from = i + len(kw)
		}
	}
	return -1
}

// errorf wraps a freshly formatted cause under the given kind.
func errorf(kind error, query, format string, args ...any) *Error {
	return &Error{Kind: kind, Query: query, Pos: -1, Err: fmt.Errorf(format, args...)}
}

// ErrorCode returns a stable machine-readable code for an error from this
// package ("parse", "compile", "unknown_semiring", ...), "canceled" for
// context cancellation, and "error" for anything else.  Transports embed it
// in their wire format; aggserve serves it as the "code" field of JSON error
// bodies.
func ErrorCode(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrParse):
		return "parse"
	case errors.Is(err, ErrCompile):
		return "compile"
	case errors.Is(err, ErrUnknownSemiring):
		return "unknown_semiring"
	case errors.Is(err, ErrUnknownDatabase):
		return "unknown_database"
	case errors.Is(err, ErrUnknownSession):
		return "unknown_session"
	case errors.Is(err, ErrSessionExists):
		return "session_exists"
	case errors.Is(err, ErrSessionBusy):
		return "session_busy"
	case errors.Is(err, ErrSessionClosed):
		return "session_closed"
	case errors.Is(err, ErrArgument):
		return "invalid_argument"
	case errors.Is(err, ErrUpdate):
		return "invalid_update"
	case errors.Is(err, ErrNotEnumerable):
		return "not_enumerable"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "canceled"
	default:
		return "error"
	}
}
