// Package parser provides a textual surface syntax for the weighted query
// language of the paper and for plain first-order formulas.
//
// Two entry points are provided:
//
//   - ParseExpr parses a weighted expression (package internal/expr): sums of
//     products of weight symbols, integer constants and Iverson brackets
//     [ϕ] guarded by first-order formulas, together with the aggregation
//     operator "sum x, y . ...".
//   - ParseFormula parses a first-order formula (package internal/logic).
//
// The grammar accepts both a plain ASCII syntax and the Unicode notation
// emitted by the String methods of the expression and formula types, so the
// output of those methods round-trips through the parser:
//
//	sum x, y, z . [E(x,y) & E(y,z) & E(z,x)] * w(x,y) * w(y,z) * w(z,x)
//	Σ_{x,y,z} ([E(x,y) ∧ E(y,z) ∧ E(z,x)] · w(x,y))
//	exists y . E(x,y) & not E(y,x)
//
// Inside brackets [...] identifiers applied to arguments denote relation
// symbols; outside brackets they denote weight symbols.
package parser

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind identifies the lexical class of a token.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokPlus      // +
	tokStar      // * or ·
	tokLParen    // (
	tokRParen    // )
	tokLBracket  // [
	tokRBracket  // ]
	tokLBrace    // {
	tokRBrace    // }
	tokComma     // ,
	tokDot       // .
	tokEquals    // =
	tokNotEquals // != or ≠
	tokBang      // ! or ¬ or "not"
	tokAnd       // & or ∧ or "and"
	tokOr        // | or ∨ or "or"
	tokSum       // "sum" or Σ or Σ_
	tokExists    // "exists" or ∃
	tokForall    // "forall" or ∀
	tokTrue      // "true"
	tokFalse     // "false"
	tokUnderscore
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokPlus:
		return "'+'"
	case tokStar:
		return "'*'"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBracket:
		return "'['"
	case tokRBracket:
		return "']'"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokComma:
		return "','"
	case tokDot:
		return "'.'"
	case tokEquals:
		return "'='"
	case tokNotEquals:
		return "'!='"
	case tokBang:
		return "'!'"
	case tokAnd:
		return "'&'"
	case tokOr:
		return "'|'"
	case tokSum:
		return "'sum'"
	case tokExists:
		return "'exists'"
	case tokForall:
		return "'forall'"
	case tokTrue:
		return "'true'"
	case tokFalse:
		return "'false'"
	case tokUnderscore:
		return "'_'"
	default:
		return "unknown token"
	}
}

// token is one lexical unit together with its position in the input.
type token struct {
	kind tokenKind
	text string
	pos  int // byte offset in the input
}

// Error is a parse error with a byte position into the original input.
type Error struct {
	// Pos is the byte offset at which the error was detected.
	Pos int
	// Msg describes the problem.
	Msg string
	// Input is the full input string, used to render context.
	Input string
}

// Error implements the error interface, rendering a caret marker under the
// offending position.
func (e *Error) Error() string {
	line := e.Input
	pos := e.Pos
	if pos > len(line) {
		pos = len(line)
	}
	return fmt.Sprintf("parse error at offset %d: %s\n  %s\n  %s^", e.Pos, e.Msg, line, strings.Repeat(" ", pos))
}

func errorAt(input string, pos int, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...), Input: input}
}

// keywords maps reserved identifiers to token kinds.
var keywords = map[string]tokenKind{
	"sum":    tokSum,
	"exists": tokExists,
	"forall": tokForall,
	"not":    tokBang,
	"and":    tokAnd,
	"or":     tokOr,
	"true":   tokTrue,
	"false":  tokFalse,
}

// lex splits the input into tokens.  It returns an error for characters that
// do not belong to the language.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(input) {
		r, size := utf8.DecodeRuneInString(input[i:])
		switch {
		case unicode.IsSpace(r):
			i += size
		case r == '+':
			toks = append(toks, token{tokPlus, "+", i})
			i += size
		case r == '*' || r == '·':
			toks = append(toks, token{tokStar, "*", i})
			i += size
		case r == '(':
			toks = append(toks, token{tokLParen, "(", i})
			i += size
		case r == ')':
			toks = append(toks, token{tokRParen, ")", i})
			i += size
		case r == '[':
			toks = append(toks, token{tokLBracket, "[", i})
			i += size
		case r == ']':
			toks = append(toks, token{tokRBracket, "]", i})
			i += size
		case r == '{':
			toks = append(toks, token{tokLBrace, "{", i})
			i += size
		case r == '}':
			toks = append(toks, token{tokRBrace, "}", i})
			i += size
		case r == ',':
			toks = append(toks, token{tokComma, ",", i})
			i += size
		case r == '.':
			toks = append(toks, token{tokDot, ".", i})
			i += size
		case r == '=':
			toks = append(toks, token{tokEquals, "=", i})
			i += size
		case r == '≠':
			toks = append(toks, token{tokNotEquals, "!=", i})
			i += size
		case r == '!':
			if strings.HasPrefix(input[i:], "!=") {
				toks = append(toks, token{tokNotEquals, "!=", i})
				i += 2
			} else {
				toks = append(toks, token{tokBang, "!", i})
				i += size
			}
		case r == '¬':
			toks = append(toks, token{tokBang, "!", i})
			i += size
		case r == '&' || r == '∧':
			// Accept both & and && for convenience.
			if r == '&' && strings.HasPrefix(input[i:], "&&") {
				toks = append(toks, token{tokAnd, "&", i})
				i += 2
			} else {
				toks = append(toks, token{tokAnd, "&", i})
				i += size
			}
		case r == '|' || r == '∨':
			if r == '|' && strings.HasPrefix(input[i:], "||") {
				toks = append(toks, token{tokOr, "|", i})
				i += 2
			} else {
				toks = append(toks, token{tokOr, "|", i})
				i += size
			}
		case r == 'Σ':
			toks = append(toks, token{tokSum, "sum", i})
			i += size
		case r == '∃':
			toks = append(toks, token{tokExists, "exists", i})
			i += size
		case r == '∀':
			toks = append(toks, token{tokForall, "forall", i})
			i += size
		case r == '_':
			toks = append(toks, token{tokUnderscore, "_", i})
			i += size
		case '0' <= r && r <= '9': // another script's digit is no number
			j := i
			for j < len(input) && input[j] >= '0' && input[j] <= '9' {
				j++
			}
			toks = append(toks, token{tokNumber, input[i:j], i})
			i = j
		case unicode.IsLetter(r):
			j := i
			for j < len(input) {
				rr, sz := utf8.DecodeRuneInString(input[j:])
				if !unicode.IsLetter(rr) && !unicode.IsDigit(rr) && rr != '_' && rr != '\'' {
					break
				}
				j += sz
			}
			word := input[i:j]
			if kind, ok := keywords[strings.ToLower(word)]; ok && word == strings.ToLower(word) {
				toks = append(toks, token{kind, word, i})
			} else {
				toks = append(toks, token{tokIdent, word, i})
			}
			i = j
		default:
			return nil, errorAt(input, i, "unexpected character %q", r)
		}
	}
	toks = append(toks, token{tokEOF, "", len(input)})
	return toks, nil
}
