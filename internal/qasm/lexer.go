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
	"unicode/utf8"
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

// token is one lexeme. Its text is a substring of the source (empty
// for punctuation); only a string literal holding invalid UTF-8 gets
// a copy, with U+FFFD for each invalid byte.
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

// lexer reads a source string in place. Positions count runes, as
// if the source were a []rune: each invalid UTF-8 byte is one U+FFFD.
// ASCII takes a byte fast path; other runes are decoded and classed
// with the unicode package, so a non-ASCII letter may start an
// identifier, a non-ASCII digit may appear in a number and U+00A0
// separates tokens.
type lexer struct {
	src  string
	pos  int // byte offset of the next rune
	line int
	col  int
	err  error // the first lex error; the parser stops reading here
}

func newLexer(src string) lexer {
	return lexer{src: src, line: 1, col: 1}
}

func (l *lexer) errf(format string, args ...interface{}) *Error {
	return &Error{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

// Byte classes. From classSpace on, a byte may begin whitespace or a
// comment, which skipSpaceAndComments consumes.
const (
	classOther  uint8 = iota // other ASCII: punctuation or an error
	classLetter              // A-Z, a-z and '_', which identifiers treat as a letter
	classDigit
	classSpace // ASCII whitespace but '\n'
	classNewline
	classSlash
	classMulti // a byte of a multi-byte rune, or invalid
)

var byteClass = func() (c [256]uint8) {
	for b := 'a'; b <= 'z'; b++ {
		c[b] = classLetter
		c[b-'a'+'A'] = classLetter
	}
	c['_'] = classLetter
	for b := '0'; b <= '9'; b++ {
		c[b] = classDigit
	}
	for _, b := range "\t\v\f\r " {
		c[b] = classSpace
	}
	c['\n'] = classNewline
	c['/'] = classSlash
	for b := utf8.RuneSelf; b < 256; b++ {
		c[b] = classMulti
	}
	return c
}()

// punct maps the bytes that are a token by themselves to its kind.
var punct = [256]tokenKind{
	';': tokSemicolon, ',': tokComma, '(': tokLParen, ')': tokRParen,
	'{': tokLBrace, '}': tokRBrace, '[': tokLBracket, ']': tokRBracket,
	'+': tokPlus, '*': tokStar, '/': tokSlash, '^': tokCaret,
}

// skipTo moves the position forward to byte offset end, counting
// lines and rune columns on the way.
func (l *lexer) skipTo(end int) {
	seg := l.src[l.pos:end]
	if nl := strings.LastIndexByte(seg, '\n'); nl >= 0 {
		l.line += strings.Count(seg, "\n")
		l.col = 1
		seg = seg[nl+1:]
	}
	l.col += utf8.RuneCountInString(seg)
	l.pos = end
}

func (l *lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		switch byteClass[l.src[l.pos]] {
		case classSpace:
			l.pos++
			l.col++
		case classNewline:
			l.pos++
			l.line++
			l.col = 1
		case classSlash:
			rest := l.src[l.pos:]
			switch {
			case strings.HasPrefix(rest, "//"):
				end := strings.IndexByte(rest, '\n')
				if end < 0 {
					end = len(rest)
				}
				l.skipTo(l.pos + end)
			case strings.HasPrefix(rest, "/*"):
				end := strings.Index(rest[2:], "*/")
				if end < 0 {
					// Stop on the last rune, where the error is reported.
					l.skipTo(l.pos + 2)
					if l.pos < len(l.src) {
						_, w := utf8.DecodeLastRuneInString(l.src[l.pos:])
						l.skipTo(len(l.src) - w)
					}
					return l.errf("unterminated block comment")
				}
				l.skipTo(l.pos + 2 + end + 2)
			default:
				return nil
			}
		case classMulti:
			r, w := utf8.DecodeRuneInString(l.src[l.pos:])
			if !unicode.IsSpace(r) {
				return nil
			}
			l.pos += w
			l.col++
		default:
			return nil
		}
	}
	return nil
}

// scan reads the next token into tok. On an error tok is left
// partly written.
func (l *lexer) scan(tok *token) error {
	if l.pos < len(l.src) && byteClass[l.src[l.pos]] >= classSpace {
		if err := l.skipSpaceAndComments(); err != nil {
			return err
		}
	}
	tok.line, tok.col, tok.text = l.line, l.col, ""
	if l.pos >= len(l.src) {
		tok.kind = tokEOF
		return nil
	}
	start := l.pos
	b := l.src[start]
	r, w := rune(b), 1
	class := byteClass[b]
	if class == classMulti {
		r, w = utf8.DecodeRuneInString(l.src[start:])
		switch {
		case unicode.IsLetter(r):
			class = classLetter
		case unicode.IsDigit(r):
			class = classDigit
		}
	}
	switch {
	case class == classLetter:
		l.scanWhile(start, true)
		tok.kind = tokIdent
		tok.text = l.src[start:l.pos]
		return nil
	case class == classDigit || b == '.':
		tok.kind = tokNumber
		tok.text = l.scanNumber(start)
		if tok.text == "." {
			return l.errf("malformed number")
		}
		return nil
	case b == '"':
		end := strings.IndexByte(l.src[start+1:], '"')
		if end < 0 {
			l.skipTo(len(l.src))
			return l.errf("unterminated string literal")
		}
		text := l.src[start+1 : start+1+end]
		l.skipTo(start + 1 + end + 1)
		if !utf8.ValidString(text) {
			text = string([]rune(text))
		}
		tok.kind = tokString
		tok.text = text
		return nil
	}
	l.pos += w
	l.col++
	if k := punct[b]; k != tokEOF {
		tok.kind = k
		return nil
	}
	switch r {
	case '-':
		if l.pos < len(l.src) && l.src[l.pos] == '>' {
			l.pos++
			l.col++
			tok.kind = tokArrow
		} else {
			tok.kind = tokMinus
		}
	case '=':
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			l.col++
			tok.kind = tokEqEq
		} else {
			return l.errf("unexpected '=' (did you mean '==')")
		}
	default:
		return l.errf("unexpected character %q", r)
	}
	return nil
}

// scanWhile consumes the digits from byte offset start on, and the
// letters too if letters is set.
func (l *lexer) scanWhile(start int, letters bool) {
	i, extra := start, 0
	for i < len(l.src) {
		switch byteClass[l.src[i]] {
		case classDigit:
			i++
			continue
		case classLetter:
			if letters {
				i++
				continue
			}
		case classMulti:
			r, w := utf8.DecodeRuneInString(l.src[i:])
			if unicode.IsDigit(r) || letters && unicode.IsLetter(r) {
				i += w
				extra += w - 1
				continue
			}
		}
		break
	}
	l.pos = i
	l.col += i - start - extra
}

// scanNumber consumes a number that starts at a digit or '.': digits
// with at most one '.', then an optional exponent ('e' or 'E', an
// optional sign and digits).
func (l *lexer) scanNumber(start int) string {
	l.scanWhile(start, false)
	if l.pos < len(l.src) && l.src[l.pos] == '.' {
		l.pos++
		l.col++
		l.scanWhile(l.pos, false)
	}
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		l.pos++
		l.col++
		if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
			l.pos++
			l.col++
		}
		l.scanWhile(l.pos, false)
	}
	return l.src[start:l.pos]
}

// drain lexes the rest of the input and returns the first error, if
// any.
func (l *lexer) drain() error {
	var t token
	for {
		if err := l.scan(&t); err != nil || t.kind == tokEOF {
			return err
		}
	}
}
