// Package qasm implements an OpenQASM 2.0 front end covering the
// language subset accepted by the paper's tool: register
// declarations, the builtin U/CX primitives, the qelib1 standard gate
// library, user-defined gate macros, measurement, reset, barriers and
// classically-controlled operations.
package qasm

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber // integer or real literal
	tokString
	tokSemicolon
	tokComma
	tokLParen
	tokRParen
	tokLBrace
	tokRBrace
	tokLBracket
	tokRBracket
	tokArrow // ->
	tokEqEq  // ==
	tokPlus
	tokMinus
	tokStar
	tokSlash
	tokCaret
)

// String names the token kind for error messages.
func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokString:
		return "string"
	case tokSemicolon:
		return "';'"
	case tokComma:
		return "','"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokLBracket:
		return "'['"
	case tokRBracket:
		return "']'"
	case tokArrow:
		return "'->'"
	case tokEqEq:
		return "'=='"
	case tokPlus:
		return "'+'"
	case tokMinus:
		return "'-'"
	case tokStar:
		return "'*'"
	case tokSlash:
		return "'/'"
	case tokCaret:
		return "'^'"
	default:
		return fmt.Sprintf("token(%d)", int(k))
	}
}

type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

// Error is a parse error with source position.
type Error struct {
	Line, Col int
	Msg       string
}

// Error renders the parse error with its source position.
func (e *Error) Error() string {
	return fmt.Sprintf("qasm:%d:%d: %s", e.Line, e.Col, e.Msg)
}

type lexer struct {
	src  []rune
	pos  int
	line int
	col  int
	err  error // the first lex error; the parser stops reading here
}

func newLexer(src string) *lexer {
	return &lexer{src: []rune(src), line: 1, col: 1}
}

func (l *lexer) errf(format string, args ...interface{}) *Error {
	return &Error{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peek() rune {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) advance() rune {
	r := l.src[l.pos]
	l.pos++
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		r := l.peek()
		switch {
		case unicode.IsSpace(r):
			l.advance()
		case r == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case r == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			l.advance()
			l.advance()
			closed := false
			for l.pos+1 < len(l.src) {
				if l.peek() == '*' && l.src[l.pos+1] == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return l.errf("unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

func (l *lexer) next() (token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	tok := token{line: l.line, col: l.col}
	if l.pos >= len(l.src) {
		tok.kind = tokEOF
		return tok, nil
	}
	r := l.peek()
	switch {
	case unicode.IsLetter(r) || r == '_':
		var b strings.Builder
		for l.pos < len(l.src) {
			r := l.peek()
			if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' {
				b.WriteRune(l.advance())
			} else {
				break
			}
		}
		tok.kind = tokIdent
		tok.text = b.String()
		return tok, nil
	case unicode.IsDigit(r) || r == '.':
		var b strings.Builder
		seenDot := false
		seenExp := false
		for l.pos < len(l.src) {
			r := l.peek()
			switch {
			case unicode.IsDigit(r):
				b.WriteRune(l.advance())
			case r == '.' && !seenDot && !seenExp:
				seenDot = true
				b.WriteRune(l.advance())
			case (r == 'e' || r == 'E') && !seenExp && b.Len() > 0:
				seenExp = true
				b.WriteRune(l.advance())
				if l.peek() == '+' || l.peek() == '-' {
					b.WriteRune(l.advance())
				}
			default:
				goto doneNumber
			}
		}
	doneNumber:
		if b.String() == "." {
			return token{}, l.errf("malformed number")
		}
		tok.kind = tokNumber
		tok.text = b.String()
		return tok, nil
	case r == '"':
		l.advance()
		var b strings.Builder
		for l.pos < len(l.src) && l.peek() != '"' {
			b.WriteRune(l.advance())
		}
		if l.pos >= len(l.src) {
			return token{}, l.errf("unterminated string literal")
		}
		l.advance()
		tok.kind = tokString
		tok.text = b.String()
		return tok, nil
	}
	l.advance()
	switch r {
	case ';':
		tok.kind = tokSemicolon
	case ',':
		tok.kind = tokComma
	case '(':
		tok.kind = tokLParen
	case ')':
		tok.kind = tokRParen
	case '{':
		tok.kind = tokLBrace
	case '}':
		tok.kind = tokRBrace
	case '[':
		tok.kind = tokLBracket
	case ']':
		tok.kind = tokRBracket
	case '+':
		tok.kind = tokPlus
	case '*':
		tok.kind = tokStar
	case '/':
		tok.kind = tokSlash
	case '^':
		tok.kind = tokCaret
	case '-':
		if l.peek() == '>' {
			l.advance()
			tok.kind = tokArrow
		} else {
			tok.kind = tokMinus
		}
	case '=':
		if l.peek() == '=' {
			l.advance()
			tok.kind = tokEqEq
		} else {
			return token{}, l.errf("unexpected '=' (did you mean '==')")
		}
	default:
		return token{}, l.errf("unexpected character %q", r)
	}
	return tok, nil
}

// drain lexes the rest of the input and returns the first error, if
// any.
func (l *lexer) drain() error {
	for {
		t, err := l.next()
		if err != nil || t.kind == tokEOF {
			return err
		}
	}
}
