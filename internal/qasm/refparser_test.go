package qasm

// The parser that lexed its whole input before parsing, frozen as the
// oracle of the production parser's differential tests: for every
// input without more than refMaxIncludeDepth includes, both must
// produce the same circuit or the same error text. Everything it
// needs beyond the exported Error type and the token kinds is a ref*
// copy in this file (lexer, registers, expression AST, macro
// expansion, the qelib1 gate table), so that a rewrite of the
// production front end is compared with the old code, not with
// itself.

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"

	"quantumdd/internal/qc"
)

// refMaxIncludeDepth bounds how many include statements one program
// may execute.
const refMaxIncludeDepth = 16

// refReg is a declared register: a contiguous slice of the flattened
// index space of its kind.
type refReg struct {
	offset int
	size   int
}

// refParser reads a pre-lexed token slice; includes splice their
// tokens in at the include statement.
type refParser struct {
	toks     []refToken
	pos      int
	includes int // counts every include, nested or not

	qregs  map[string]refReg
	cregs  map[string]refReg
	nq, nc int
	macros map[string]*refMacro
	ops    []qc.Op

	resolve IncludeResolver
}

func refParseWithIncludes(src string, resolve IncludeResolver) (*qc.Circuit, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &refParser{
		qregs:   map[string]refReg{},
		cregs:   map[string]refReg{},
		macros:  map[string]*refMacro{},
		resolve: resolve,
		toks:    toks,
	}
	if err := p.parseProgram(); err != nil {
		return nil, err
	}
	if p.nq == 0 {
		return nil, &Error{Line: 1, Col: 1, Msg: "program declares no quantum register"}
	}
	circ := qc.New(p.nq, p.nc)
	circ.Name = "qasm"
	circ.Ops = make([]qc.Op, 0, len(p.ops))
	for _, op := range p.ops {
		circ.Append(op)
	}
	return circ, nil
}

func (p *refParser) errAt(t refToken, format string, args ...interface{}) *Error {
	return &Error{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *refParser) peek() refToken { return p.toks[p.pos] }

func (p *refParser) advance() refToken { t := p.toks[p.pos]; p.pos++; return t }

func (p *refParser) expect(kind tokenKind) error {
	t := p.peek()
	if t.kind != kind {
		return p.errAt(t, "expected %s, found %s %q", kind, t.kind, t.text)
	}
	p.advance()
	return nil
}

// listNext reads what follows an item of a comma-separated list that
// ends at the token close: it consumes a ',' and reports that another
// item follows, or reports the end of the list at close.
func (p *refParser) listNext(close tokenKind) (bool, error) {
	switch t := p.peek(); t.kind {
	case tokComma:
		p.advance()
		return true, nil
	case close:
		return false, nil
	default:
		return false, p.errAt(t, "expected ',' or %s, found %s %q", close, t.kind, t.text)
	}
}

func (p *refParser) parseProgram() error {
	// Optional version header.
	if t := p.peek(); t.kind == tokIdent && t.text == "OPENQASM" {
		p.advance()
		v := p.peek()
		if v.kind != tokNumber {
			return p.errAt(v, "expected version number after OPENQASM")
		}
		if v.text != "2.0" && v.text != "2" {
			return p.errAt(v, "unsupported OpenQASM version %q (only 2.0)", v.text)
		}
		p.advance()
		if err := p.expect(tokSemicolon); err != nil {
			return err
		}
	}
	for {
		t := p.peek()
		if t.kind == tokEOF {
			return nil
		}
		if err := p.parseStatement(); err != nil {
			return err
		}
	}
}

func (p *refParser) parseStatement() error {
	t := p.peek()
	if t.kind != tokIdent {
		return p.errAt(t, "expected statement, found %s %q", t.kind, t.text)
	}
	switch t.text {
	case "include":
		return p.parseInclude()
	case "qreg":
		return p.parseRegDecl(true)
	case "creg":
		return p.parseRegDecl(false)
	case "gate":
		return p.parseGateDecl()
	case "opaque":
		return p.parseOpaque()
	case "measure":
		return p.parseMeasure(nil)
	case "reset":
		return p.parseReset(nil)
	case "barrier":
		return p.parseBarrier()
	case "if":
		return p.parseIf()
	default:
		return p.parseGateCall(nil)
	}
}

func (p *refParser) parseInclude() error {
	p.advance()
	t := p.peek()
	if t.kind != tokString {
		return p.errAt(t, "expected file name string after include")
	}
	p.advance()
	if err := p.expect(tokSemicolon); err != nil {
		return err
	}
	if t.text == "qelib1.inc" {
		// The standard library is built in.
		return nil
	}
	if p.resolve == nil {
		return p.errAt(t, "include %q not available (only \"qelib1.inc\" is built in; use ParseFile for file includes)", t.text)
	}
	p.includes++
	if p.includes > refMaxIncludeDepth {
		return p.errAt(t, "includes nested deeper than %d (cycle?)", refMaxIncludeDepth)
	}
	src, err := p.resolve(t.text)
	if err != nil {
		return p.errAt(t, "include %q: %v", t.text, err)
	}
	toks, err := lexAll(src)
	if err != nil {
		return p.errAt(t, "include %q: %v", t.text, err)
	}
	// Splice the included tokens (minus their EOF) before the current
	// position.
	rest := append([]refToken(nil), p.toks[p.pos:]...)
	p.toks = append(append(p.toks[:p.pos:p.pos], toks[:len(toks)-1]...), rest...)
	return nil
}

func (p *refParser) parseRegDecl(quantum bool) error {
	p.advance()
	name := p.peek()
	if name.kind != tokIdent {
		return p.errAt(name, "expected register name")
	}
	p.advance()
	if err := p.expect(tokLBracket); err != nil {
		return err
	}
	sz := p.peek()
	if sz.kind != tokNumber {
		return p.errAt(sz, "expected register size")
	}
	size, err := strconv.Atoi(sz.text)
	if err != nil || size <= 0 {
		return p.errAt(sz, "invalid register size %q", sz.text)
	}
	p.advance()
	if err := p.expect(tokRBracket); err != nil {
		return err
	}
	if err := p.expect(tokSemicolon); err != nil {
		return err
	}
	if _, dup := p.qregs[name.text]; dup {
		return p.errAt(name, "register %q already declared", name.text)
	}
	if _, dup := p.cregs[name.text]; dup {
		return p.errAt(name, "register %q already declared", name.text)
	}
	if quantum {
		p.qregs[name.text] = refReg{offset: p.nq, size: size}
		p.nq += size
	} else {
		p.cregs[name.text] = refReg{offset: p.nc, size: size}
		p.nc += size
	}
	return nil
}

func (p *refParser) parseOpaque() error {
	// opaque name(params?) qargs ;  — declared but never executable.
	for p.peek().kind != tokSemicolon && p.peek().kind != tokEOF {
		p.advance()
	}
	return p.expect(tokSemicolon)
}

func (p *refParser) parseGateDecl() error {
	p.advance()
	nameTok := p.peek()
	if nameTok.kind != tokIdent {
		return p.errAt(nameTok, "expected gate name")
	}
	p.advance()
	m := &refMacro{name: nameTok.text}
	if _, exists := p.macros[m.name]; exists {
		return p.errAt(nameTok, "gate %q already defined", m.name)
	}
	if _, native := refNatives[m.name]; native || m.name == "U" || m.name == "CX" {
		// Re-declaring a builtin (as qelib1.inc itself would) is
		// accepted; the builtin implementation wins.
		return p.skipGateBody()
	}
	if p.peek().kind == tokLParen {
		p.advance()
		for more := p.peek().kind != tokRParen; more; {
			t := p.peek()
			if t.kind != tokIdent {
				return p.errAt(t, "expected parameter name")
			}
			m.params = append(m.params, t.text)
			p.advance()
			var err error
			if more, err = p.listNext(tokRParen); err != nil {
				return err
			}
		}
		p.advance() // ')'
	}
	for {
		t := p.peek()
		if t.kind != tokIdent {
			return p.errAt(t, "expected qubit argument name")
		}
		m.qargs = append(m.qargs, t.text)
		p.advance()
		if p.peek().kind == tokComma {
			p.advance()
			continue
		}
		break
	}
	if err := p.expect(tokLBrace); err != nil {
		return err
	}
	for p.peek().kind != tokRBrace {
		st, err := p.parseMacroStmt(m)
		if err != nil {
			return err
		}
		m.body = append(m.body, st)
	}
	p.advance() // '}'
	p.macros[m.name] = m
	return nil
}

func (p *refParser) skipGateBody() error {
	depth := 0
	for {
		t := p.peek()
		switch t.kind {
		case tokEOF:
			return p.errAt(t, "unexpected end of input in gate declaration")
		case tokLBrace:
			depth++
		case tokRBrace:
			depth--
			if depth == 0 {
				p.advance()
				return nil
			}
		case tokSemicolon:
			if depth == 0 {
				// parameterless redeclaration without body is illegal,
				// but tolerate "opaque-style" lines.
				p.advance()
				return nil
			}
		}
		p.advance()
	}
}

func (p *refParser) parseMacroStmt(m *refMacro) (refMacroStmt, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return refMacroStmt{}, p.errAt(t, "expected gate call in gate body")
	}
	if t.text == "barrier" {
		// barrier inside a macro is a scheduling hint; skip operands.
		for p.peek().kind != tokSemicolon && p.peek().kind != tokEOF {
			p.advance()
		}
		if err := p.expect(tokSemicolon); err != nil {
			return refMacroStmt{}, err
		}
		return refMacroStmt{barrier: true, line: t.line, col: t.col}, nil
	}
	// OpenQASM 2.0 requires gates to be defined before use, which also
	// rules out (mutual) recursion: a gate is not visible inside its
	// own body.
	if _, isNative := refNatives[t.text]; !isNative {
		if _, isMacro := p.macros[t.text]; !isMacro {
			return refMacroStmt{}, p.errAt(t, "unknown gate %q in body of %q (gates must be defined before use)", t.text, m.name)
		}
	}
	st := refMacroStmt{name: t.text, line: t.line, col: t.col}
	p.advance()
	if p.peek().kind == tokLParen {
		p.advance()
		for more := p.peek().kind != tokRParen; more; {
			e, err := p.parseExpr()
			if err != nil {
				return refMacroStmt{}, err
			}
			st.params = append(st.params, e)
			if more, err = p.listNext(tokRParen); err != nil {
				return refMacroStmt{}, err
			}
		}
		p.advance()
	}
	for {
		a := p.peek()
		if a.kind != tokIdent {
			return refMacroStmt{}, p.errAt(a, "expected qubit argument")
		}
		found := false
		for _, q := range m.qargs {
			if q == a.text {
				found = true
				break
			}
		}
		if !found {
			return refMacroStmt{}, p.errAt(a, "unknown qubit argument %q in gate %q", a.text, m.name)
		}
		st.qargs = append(st.qargs, a.text)
		p.advance()
		if p.peek().kind == tokComma {
			p.advance()
			continue
		}
		break
	}
	if err := p.expect(tokSemicolon); err != nil {
		return refMacroStmt{}, err
	}
	return st, nil
}

func (p *refParser) parseOperand() (refOperand, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return refOperand{}, p.errAt(t, "expected register operand")
	}
	p.advance()
	op := refOperand{name: t.text, line: t.line, col: t.col}
	if p.peek().kind == tokLBracket {
		p.advance()
		idx := p.peek()
		if idx.kind != tokNumber {
			return refOperand{}, p.errAt(idx, "expected index")
		}
		index, err := strconv.Atoi(idx.text)
		if err != nil {
			return refOperand{}, p.errAt(idx, "invalid index %q", idx.text)
		}
		op.index = index
		p.advance()
		if err := p.expect(tokRBracket); err != nil {
			return refOperand{}, err
		}
		op.indexed = true
	}
	return op, nil
}

func (p *refParser) parseMeasure(cond *qc.Condition) error {
	p.advance()
	src, err := p.parseOperand()
	if err != nil {
		return err
	}
	if err := p.expect(tokArrow); err != nil {
		return err
	}
	dst, err := p.parseOperand()
	if err != nil {
		return err
	}
	if err := p.expect(tokSemicolon); err != nil {
		return err
	}
	if cond != nil {
		return p.errAt(refToken{line: src.line, col: src.col}, "classically-controlled measure is not supported")
	}
	qr, ok := p.qregs[src.name]
	if !ok {
		return p.errAt(refToken{line: src.line, col: src.col}, "unknown quantum register %q", src.name)
	}
	cr, ok := p.cregs[dst.name]
	if !ok {
		return p.errAt(refToken{line: dst.line, col: dst.col}, "unknown classical register %q", dst.name)
	}
	switch {
	case src.indexed && dst.indexed:
		if src.index >= qr.size || dst.index >= cr.size {
			return p.errAt(refToken{line: src.line, col: src.col}, "measure index out of range")
		}
		p.ops = append(p.ops, qc.Op{Kind: qc.KindMeasure, Targets: []int{qr.offset + src.index}, Cbit: cr.offset + dst.index})
	case !src.indexed && !dst.indexed:
		if qr.size != cr.size {
			return p.errAt(refToken{line: src.line, col: src.col}, "measure register sizes differ (%d vs %d)", qr.size, cr.size)
		}
		for i := 0; i < qr.size; i++ {
			p.ops = append(p.ops, qc.Op{Kind: qc.KindMeasure, Targets: []int{qr.offset + i}, Cbit: cr.offset + i})
		}
	default:
		return p.errAt(refToken{line: src.line, col: src.col}, "measure operands must both be indexed or both be registers")
	}
	return nil
}

func (p *refParser) parseReset(cond *qc.Condition) error {
	t := p.peek()
	p.advance()
	op, err := p.parseOperand()
	if err != nil {
		return err
	}
	if err := p.expect(tokSemicolon); err != nil {
		return err
	}
	if cond != nil {
		return p.errAt(t, "classically-controlled reset is not supported")
	}
	r, ok := p.qregs[op.name]
	if !ok {
		return p.errAt(t, "unknown quantum register %q", op.name)
	}
	if op.indexed {
		if op.index >= r.size {
			return p.errAt(t, "reset index out of range")
		}
		p.ops = append(p.ops, qc.Op{Kind: qc.KindReset, Targets: []int{r.offset + op.index}})
		return nil
	}
	for i := 0; i < r.size; i++ {
		p.ops = append(p.ops, qc.Op{Kind: qc.KindReset, Targets: []int{r.offset + i}})
	}
	return nil
}

func (p *refParser) parseBarrier() error {
	p.advance()
	// Operands are irrelevant for the breakpoint semantics; validate
	// they name known registers, then emit a single barrier.
	for more := p.peek().kind != tokSemicolon; more; {
		op, err := p.parseOperand()
		if err != nil {
			return err
		}
		if _, ok := p.qregs[op.name]; !ok {
			return p.errAt(refToken{line: op.line, col: op.col}, "unknown quantum register %q", op.name)
		}
		if more, err = p.listNext(tokSemicolon); err != nil {
			return err
		}
	}
	p.advance() // ';'
	p.ops = append(p.ops, qc.Op{Kind: qc.KindBarrier})
	return nil
}

func (p *refParser) parseIf() error {
	p.advance() // 'if'
	if err := p.expect(tokLParen); err != nil {
		return err
	}
	regTok := p.peek()
	if regTok.kind != tokIdent {
		return p.errAt(regTok, "expected classical register in if condition")
	}
	p.advance()
	cr, ok := p.cregs[regTok.text]
	if !ok {
		return p.errAt(regTok, "unknown classical register %q", regTok.text)
	}
	if err := p.expect(tokEqEq); err != nil {
		return err
	}
	valTok := p.peek()
	if valTok.kind != tokNumber {
		return p.errAt(valTok, "expected integer in if condition")
	}
	value, err := strconv.ParseUint(valTok.text, 10, 64)
	if err != nil {
		return p.errAt(valTok, "invalid integer %q", valTok.text)
	}
	p.advance()
	if err := p.expect(tokRParen); err != nil {
		return err
	}
	bits := make([]int, cr.size)
	for i := range bits {
		bits[i] = cr.offset + i
	}
	cond := &qc.Condition{Bits: bits, Value: value}
	st := p.peek()
	if st.kind != tokIdent {
		return p.errAt(st, "expected quantum operation after if condition")
	}
	switch st.text {
	case "measure":
		return p.parseMeasure(cond)
	case "reset":
		return p.parseReset(cond)
	case "if", "gate", "qreg", "creg", "include", "opaque", "barrier":
		return p.errAt(st, "%q cannot be classically controlled", st.text)
	default:
		return p.parseGateCall(cond)
	}
}

func (p *refParser) parseGateCall(cond *qc.Condition) error {
	nameTok := p.advance()
	name := nameTok.text
	var params []float64
	if p.peek().kind == tokLParen {
		p.advance()
		for more := p.peek().kind != tokRParen; more; {
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			v, err := e.eval(nil)
			if err != nil {
				return err
			}
			params = append(params, v)
			if more, err = p.listNext(tokRParen); err != nil {
				return err
			}
		}
		p.advance()
	}
	var operands []refOperand
	for {
		o, err := p.parseOperand()
		if err != nil {
			return err
		}
		operands = append(operands, o)
		if p.peek().kind == tokComma {
			p.advance()
			continue
		}
		break
	}
	if err := p.expect(tokSemicolon); err != nil {
		return err
	}
	applications, err := p.resolveQubits(operands)
	if err != nil {
		return err
	}
	for _, qubits := range applications {
		if err := p.emitGate(nameTok, name, params, qubits, cond); err != nil {
			return err
		}
	}
	return nil
}

func (p *refParser) parseExpr() (refExpr, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokPlus && t.kind != tokMinus {
			return l, nil
		}
		p.advance()
		r, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		op := '+'
		if t.kind == tokMinus {
			op = '-'
		}
		l = refBinExpr{op: op, l: l, r: r, line: t.line, col: t.col}
	}
}

func (p *refParser) parseTerm() (refExpr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokStar && t.kind != tokSlash {
			return l, nil
		}
		p.advance()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		op := '*'
		if t.kind == tokSlash {
			op = '/'
		}
		l = refBinExpr{op: op, l: l, r: r, line: t.line, col: t.col}
	}
}

func (p *refParser) parseUnary() (refExpr, error) {
	if t := p.peek(); t.kind == tokMinus {
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return refUnaryExpr{op: '-', x: x}, nil
	}
	return p.parsePow()
}

func (p *refParser) parsePow() (refExpr, error) {
	base, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind == tokCaret {
		p.advance()
		exp, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return refBinExpr{op: '^', l: base, r: exp, line: t.line, col: t.col}, nil
	}
	return base, nil
}

func (p *refParser) parsePrimary() (refExpr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.advance()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, &Error{Line: t.line, Col: t.col, Msg: fmt.Sprintf("malformed number %q", t.text)}
		}
		return refNumExpr(v), nil
	case tokIdent:
		p.advance()
		if t.text == "pi" {
			return refPiExpr{}, nil
		}
		if p.peek().kind == tokLParen {
			p.advance()
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			return refCallExpr{fn: t.text, arg: arg, line: t.line, col: t.col}, nil
		}
		return refVarExpr{name: t.text, line: t.line, col: t.col}, nil
	case tokLParen:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, &Error{Line: t.line, Col: t.col, Msg: fmt.Sprintf("expected expression, found %s", t.kind)}
}

// lexAll tokenizes the whole input.
func lexAll(src string) ([]refToken, error) {
	l := newRefLexer(src)
	var out []refToken
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}

type refToken struct {
	kind tokenKind
	text string
	line int
	col  int
}

type refLexer struct {
	src  []rune
	pos  int
	line int
	col  int
	err  error // the first lex error; the parser stops reading here
}

func newRefLexer(src string) *refLexer {
	return &refLexer{src: []rune(src), line: 1, col: 1}
}

func (l *refLexer) errf(format string, args ...interface{}) *Error {
	return &Error{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *refLexer) peek() rune {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *refLexer) advance() rune {
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

func (l *refLexer) skipSpaceAndComments() error {
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

func (l *refLexer) next() (refToken, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return refToken{}, err
	}
	tok := refToken{line: l.line, col: l.col}
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
			return refToken{}, l.errf("malformed number")
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
			return refToken{}, l.errf("unterminated string literal")
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
			return refToken{}, l.errf("unexpected '=' (did you mean '==')")
		}
	default:
		return refToken{}, l.errf("unexpected character %q", r)
	}
	return tok, nil
}

// drain lexes the rest of the input and returns the first error, if
// any.
func (l *refLexer) drain() error {
	for {
		t, err := l.next()
		if err != nil || t.kind == tokEOF {
			return err
		}
	}
}

// refExpr is a parameter expression AST evaluated against the formal
// parameters of a gate macro (empty environment at top level).
type refExpr interface {
	eval(env map[string]float64) (float64, error)
}

type refNumExpr float64

func (e refNumExpr) eval(map[string]float64) (float64, error) { return float64(e), nil }

type refPiExpr struct{}

func (refPiExpr) eval(map[string]float64) (float64, error) { return math.Pi, nil }

type refVarExpr struct {
	name      string
	line, col int
}

func (e refVarExpr) eval(env map[string]float64) (float64, error) {
	if v, ok := env[e.name]; ok {
		return v, nil
	}
	return 0, &Error{Line: e.line, Col: e.col, Msg: fmt.Sprintf("unknown parameter %q", e.name)}
}

type refUnaryExpr struct {
	op rune // '-'
	x  refExpr
}

func (e refUnaryExpr) eval(env map[string]float64) (float64, error) {
	v, err := e.x.eval(env)
	if err != nil {
		return 0, err
	}
	return -v, nil
}

type refBinExpr struct {
	op        rune // '+', '-', '*', '/', '^'
	l, r      refExpr
	line, col int
}

func (e refBinExpr) eval(env map[string]float64) (float64, error) {
	a, err := e.l.eval(env)
	if err != nil {
		return 0, err
	}
	b, err := e.r.eval(env)
	if err != nil {
		return 0, err
	}
	switch e.op {
	case '+':
		return a + b, nil
	case '-':
		return a - b, nil
	case '*':
		return a * b, nil
	case '/':
		if b == 0 {
			return 0, &Error{Line: e.line, Col: e.col, Msg: "division by zero in parameter expression"}
		}
		return a / b, nil
	case '^':
		return math.Pow(a, b), nil
	}
	return 0, &Error{Line: e.line, Col: e.col, Msg: fmt.Sprintf("unknown operator %q", e.op)}
}

type refCallExpr struct {
	fn        string
	arg       refExpr
	line, col int
}

func (e refCallExpr) eval(env map[string]float64) (float64, error) {
	v, err := e.arg.eval(env)
	if err != nil {
		return 0, err
	}
	switch e.fn {
	case "sin":
		return math.Sin(v), nil
	case "cos":
		return math.Cos(v), nil
	case "tan":
		return math.Tan(v), nil
	case "exp":
		return math.Exp(v), nil
	case "ln":
		if v <= 0 {
			return 0, &Error{Line: e.line, Col: e.col, Msg: "ln of non-positive value"}
		}
		return math.Log(v), nil
	case "sqrt":
		if v < 0 {
			return 0, &Error{Line: e.line, Col: e.col, Msg: "sqrt of negative value"}
		}
		return math.Sqrt(v), nil
	}
	return 0, &Error{Line: e.line, Col: e.col, Msg: fmt.Sprintf("unknown function %q", e.fn)}
}

// refMacro is a user-defined gate ("gate name(params) qargs { body }").
type refMacro struct {
	name   string
	params []string
	qargs  []string
	body   []refMacroStmt
}

// refMacroStmt is one statement of a macro body: a gate call on formal
// arguments, or a barrier (which is a no-op inside macros here).
type refMacroStmt struct {
	name    string
	params  []refExpr
	qargs   []string
	barrier bool
	line    int
	col     int
}

// refOperand is a parsed quantum/classical argument: whole register or a
// single indexed bit.
type refOperand struct {
	name    string
	indexed bool
	index   int
	line    int
	col     int
}

// resolveQubits flattens an operand list into per-repetition global
// qubit indices, implementing qelib1 broadcasting: whole registers
// must share a common size n, single qubits repeat n times.
func (p *refParser) resolveQubits(operands []refOperand) ([][]int, error) {
	width := 1
	for _, o := range operands {
		r, ok := p.qregs[o.name]
		if !ok {
			return nil, p.errAt(refToken{line: o.line, col: o.col}, "unknown quantum register %q", o.name)
		}
		if o.indexed {
			if o.index < 0 || o.index >= r.size {
				return nil, p.errAt(refToken{line: o.line, col: o.col}, "index %d out of range for %s[%d]", o.index, o.name, r.size)
			}
			continue
		}
		if width == 1 {
			width = r.size
		} else if r.size != width {
			return nil, p.errAt(refToken{line: o.line, col: o.col}, "broadcast register sizes differ (%d vs %d)", r.size, width)
		}
	}
	out := make([][]int, width)
	for rep := 0; rep < width; rep++ {
		idx := make([]int, len(operands))
		for i, o := range operands {
			r := p.qregs[o.name]
			if o.indexed {
				idx[i] = r.offset + o.index
			} else {
				k := rep
				if r.size == 1 {
					k = 0
				}
				idx[i] = r.offset + k
			}
		}
		// Distinctness within one application.
		seen := map[int]bool{}
		for _, q := range idx {
			if seen[q] {
				return nil, p.errAt(refToken{line: operands[0].line, col: operands[0].col}, "gate operands overlap on qubit %d", q)
			}
			seen[q] = true
		}
		out[rep] = idx
	}
	return out, nil
}

// emitGate lowers one gate application (builtin, qelib1 native, or
// user macro) onto global qubit indices.
func (p *refParser) emitGate(at refToken, name string, params []float64, qubits []int, cond *qc.Condition) error {
	if n, ok := refNatives[name]; ok {
		if len(params) != n.params {
			return p.errAt(at, "gate %q takes %d parameter(s), got %d", name, n.params, len(params))
		}
		if len(qubits) != n.qubits {
			return p.errAt(at, "gate %q takes %d qubit(s), got %d", name, n.qubits, len(qubits))
		}
		seen := map[int]bool{}
		for _, q := range qubits {
			if seen[q] {
				return p.errAt(at, "gate operands overlap on qubit %d", q)
			}
			seen[q] = true
		}
		op, err := n.build(params, qubits)
		if err != nil {
			return p.errAt(at, "%v", err)
		}
		op.Cond = cond
		p.ops = append(p.ops, op)
		return nil
	}
	if m, ok := p.macros[name]; ok {
		if len(params) != len(m.params) {
			return p.errAt(at, "gate %q takes %d parameter(s), got %d", name, len(m.params), len(params))
		}
		if len(qubits) != len(m.qargs) {
			return p.errAt(at, "gate %q takes %d qubit(s), got %d", name, len(m.qargs), len(qubits))
		}
		return p.expandMacro(at, m, params, qubits, cond, 0)
	}
	return p.errAt(at, "unknown gate %q", name)
}

const refMaxMacroDepth = 64

func (p *refParser) expandMacro(at refToken, m *refMacro, params []float64, qubits []int, cond *qc.Condition, depth int) error {
	if depth > refMaxMacroDepth {
		return p.errAt(at, "gate expansion exceeds depth %d (recursive definition?)", refMaxMacroDepth)
	}
	env := make(map[string]float64, len(m.params))
	for i, name := range m.params {
		env[name] = params[i]
	}
	qenv := make(map[string]int, len(m.qargs))
	for i, name := range m.qargs {
		qenv[name] = qubits[i]
	}
	for _, st := range m.body {
		if st.barrier {
			continue
		}
		vals := make([]float64, len(st.params))
		for i, e := range st.params {
			v, err := e.eval(env)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		qs := make([]int, len(st.qargs))
		for i, qa := range st.qargs {
			qs[i] = qenv[qa]
		}
		stTok := refToken{line: st.line, col: st.col}
		if inner, ok := p.macros[st.name]; ok {
			if len(vals) != len(inner.params) || len(qs) != len(inner.qargs) {
				return p.errAt(stTok, "gate %q arity mismatch inside %q", st.name, m.name)
			}
			if err := p.expandMacro(stTok, inner, vals, qs, cond, depth+1); err != nil {
				return err
			}
			continue
		}
		if err := p.emitGate(stTok, st.name, vals, qs, cond); err != nil {
			return err
		}
	}
	return nil
}

// refNative describes a builtin gate and its lowering to the IR.
type refNative struct {
	params int
	qubits int
	build  func(params []float64, q []int) (qc.Op, error)
}

func refSimple(g qc.Gate, nctrl int) refNative {
	return refNative{
		qubits: nctrl + 1,
		build: func(params []float64, q []int) (qc.Op, error) {
			ctl := make([]qc.Control, nctrl)
			for i := 0; i < nctrl; i++ {
				ctl[i] = qc.Control{Qubit: q[i]}
			}
			return qc.Op{Kind: qc.KindGate, Gate: g, Targets: []int{q[nctrl]}, Controls: ctl}, nil
		},
	}
}

func refParam1(g qc.Gate, nctrl int) refNative {
	n := refSimple(g, nctrl)
	n.params = 1
	base := n.build
	n.build = func(params []float64, q []int) (qc.Op, error) {
		op, err := base(nil, q)
		op.Params = []float64{params[0]}
		return op, err
	}
	return n
}

// refNatives lists the builtin primitives (U, CX) and the qelib1 standard
// library, mapped directly onto the IR.
var refNatives = map[string]refNative{
	// OpenQASM primitives.
	"U": {params: 3, qubits: 1, build: func(ps []float64, q []int) (qc.Op, error) {
		return qc.Op{Kind: qc.KindGate, Gate: qc.U, Params: []float64{ps[0], ps[1], ps[2]}, Targets: []int{q[0]}}, nil
	}},
	"CX": refSimple(qc.X, 1),
	// qelib1 single-qubit gates.
	"id":   refSimple(qc.I, 0),
	"x":    refSimple(qc.X, 0),
	"y":    refSimple(qc.Y, 0),
	"z":    refSimple(qc.Z, 0),
	"h":    refSimple(qc.H, 0),
	"s":    refSimple(qc.S, 0),
	"sdg":  refSimple(qc.Sdg, 0),
	"t":    refSimple(qc.T, 0),
	"tdg":  refSimple(qc.Tdg, 0),
	"sx":   refSimple(qc.SX, 0),
	"sxdg": refSimple(qc.SXdg, 0),
	"v":    refSimple(qc.V, 0),
	"vdg":  refSimple(qc.Vdg, 0),
	"p":    refParam1(qc.P, 0),
	"u1":   refParam1(qc.P, 0),
	"rx":   refParam1(qc.RX, 0),
	"ry":   refParam1(qc.RY, 0),
	"rz":   refParam1(qc.RZ, 0),
	"u2": {params: 2, qubits: 1, build: func(ps []float64, q []int) (qc.Op, error) {
		return qc.Op{Kind: qc.KindGate, Gate: qc.U, Params: []float64{math.Pi / 2, ps[0], ps[1]}, Targets: []int{q[0]}}, nil
	}},
	"u3": {params: 3, qubits: 1, build: func(ps []float64, q []int) (qc.Op, error) {
		return qc.Op{Kind: qc.KindGate, Gate: qc.U, Params: []float64{ps[0], ps[1], ps[2]}, Targets: []int{q[0]}}, nil
	}},
	"u": {params: 3, qubits: 1, build: func(ps []float64, q []int) (qc.Op, error) {
		return qc.Op{Kind: qc.KindGate, Gate: qc.U, Params: []float64{ps[0], ps[1], ps[2]}, Targets: []int{q[0]}}, nil
	}},
	// Controlled gates.
	"cx":  refSimple(qc.X, 1),
	"cy":  refSimple(qc.Y, 1),
	"cz":  refSimple(qc.Z, 1),
	"ch":  refSimple(qc.H, 1),
	"csx": refSimple(qc.SX, 1),
	"cp":  refParam1(qc.P, 1),
	"cu1": refParam1(qc.P, 1),
	"crx": refParam1(qc.RX, 1),
	"cry": refParam1(qc.RY, 1),
	"crz": refParam1(qc.RZ, 1),
	"cu3": {params: 3, qubits: 2, build: func(ps []float64, q []int) (qc.Op, error) {
		return qc.Op{Kind: qc.KindGate, Gate: qc.U, Params: []float64{ps[0], ps[1], ps[2]}, Targets: []int{q[1]}, Controls: []qc.Control{{Qubit: q[0]}}}, nil
	}},
	"ccx": refSimple(qc.X, 2),
	"ccz": refSimple(qc.Z, 2),
	// Swap family.
	"swap": {qubits: 2, build: func(ps []float64, q []int) (qc.Op, error) {
		return qc.Op{Kind: qc.KindGate, Gate: qc.Swap, Targets: []int{q[0], q[1]}}, nil
	}},
	"cswap": {qubits: 3, build: func(ps []float64, q []int) (qc.Op, error) {
		return qc.Op{Kind: qc.KindGate, Gate: qc.Swap, Targets: []int{q[1], q[2]}, Controls: []qc.Control{{Qubit: q[0]}}}, nil
	}},
}
