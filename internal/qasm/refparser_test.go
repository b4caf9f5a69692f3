package qasm

// The parser that lexed its whole input before parsing, kept (bar
// identifiers) as the oracle of the streaming parser's differential
// tests: for every input without more than maxIncludeDepth includes,
// both must produce the same circuit or the same error text. The
// token-free helpers (errAt, resolveQubits, emitGate, expandMacro)
// are shared through the embedded parser.

import (
	"fmt"
	"strconv"

	"quantumdd/internal/qc"
)

// refParser reads a pre-lexed token slice; includes splice their
// tokens in at the include statement.
type refParser struct {
	*parser
	toks     []token
	pos      int
	includes int // counts every include, nested or not
}

func refParseWithIncludes(src string, resolve IncludeResolver) (*qc.Circuit, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &refParser{
		parser: &parser{
			qregs:   map[string]reg{},
			cregs:   map[string]reg{},
			macros:  map[string]*macro{},
			resolve: resolve,
		},
		toks: toks,
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

func (p *refParser) peek() token { return p.toks[p.pos] }

func (p *refParser) advance() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *refParser) expect(kind tokenKind) error {
	t := p.peek()
	if t.kind != kind {
		return p.errAt(t, "expected %s, found %s %q", kind, t.kind, t.text)
	}
	p.advance()
	return nil
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
	if p.includes > maxIncludeDepth {
		return p.errAt(t, "includes nested deeper than %d (cycle?)", maxIncludeDepth)
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
	rest := append([]token(nil), p.toks[p.pos:]...)
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
		p.qregs[name.text] = reg{offset: p.nq, size: size}
		p.qorder = append(p.qorder, name.text)
		p.nq += size
	} else {
		p.cregs[name.text] = reg{offset: p.nc, size: size}
		p.corder = append(p.corder, name.text)
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
	m := &macro{name: nameTok.text}
	if _, exists := p.macros[m.name]; exists {
		return p.errAt(nameTok, "gate %q already defined", m.name)
	}
	if _, native := natives[m.name]; native || m.name == "U" || m.name == "CX" {
		// Re-declaring a builtin (as qelib1.inc itself would) is
		// accepted; the builtin implementation wins.
		return p.skipGateBody()
	}
	if p.peek().kind == tokLParen {
		p.advance()
		for p.peek().kind != tokRParen {
			t := p.peek()
			if t.kind != tokIdent {
				return p.errAt(t, "expected parameter name")
			}
			m.params = append(m.params, t.text)
			p.advance()
			if p.peek().kind == tokComma {
				p.advance()
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

func (p *refParser) parseMacroStmt(m *macro) (macroStmt, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return macroStmt{}, p.errAt(t, "expected gate call in gate body")
	}
	if t.text == "barrier" {
		// barrier inside a macro is a scheduling hint; skip operands.
		for p.peek().kind != tokSemicolon && p.peek().kind != tokEOF {
			p.advance()
		}
		if err := p.expect(tokSemicolon); err != nil {
			return macroStmt{}, err
		}
		return macroStmt{barrier: true, line: t.line, col: t.col}, nil
	}
	// OpenQASM 2.0 requires gates to be defined before use, which also
	// rules out (mutual) recursion: a gate is not visible inside its
	// own body.
	if _, isNative := natives[t.text]; !isNative {
		if _, isMacro := p.macros[t.text]; !isMacro {
			return macroStmt{}, p.errAt(t, "unknown gate %q in body of %q (gates must be defined before use)", t.text, m.name)
		}
	}
	st := macroStmt{name: t.text, line: t.line, col: t.col}
	p.advance()
	if p.peek().kind == tokLParen {
		p.advance()
		for p.peek().kind != tokRParen {
			e, err := p.parseExpr()
			if err != nil {
				return macroStmt{}, err
			}
			st.params = append(st.params, e)
			if p.peek().kind == tokComma {
				p.advance()
			}
		}
		p.advance()
	}
	for {
		a := p.peek()
		if a.kind != tokIdent {
			return macroStmt{}, p.errAt(a, "expected qubit argument")
		}
		found := false
		for _, q := range m.qargs {
			if q == a.text {
				found = true
				break
			}
		}
		if !found {
			return macroStmt{}, p.errAt(a, "unknown qubit argument %q in gate %q", a.text, m.name)
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
		return macroStmt{}, err
	}
	return st, nil
}

func (p *refParser) parseOperand() (operand, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return operand{}, p.errAt(t, "expected register operand")
	}
	p.advance()
	op := operand{name: t.text, line: t.line, col: t.col}
	if p.peek().kind == tokLBracket {
		p.advance()
		idx := p.peek()
		if idx.kind != tokNumber {
			return operand{}, p.errAt(idx, "expected index")
		}
		index, err := strconv.Atoi(idx.text)
		if err != nil {
			return operand{}, p.errAt(idx, "invalid index %q", idx.text)
		}
		op.index = index
		p.advance()
		if err := p.expect(tokRBracket); err != nil {
			return operand{}, err
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
		return p.errAt(token{line: src.line, col: src.col}, "classically-controlled measure is not supported")
	}
	qr, ok := p.qregs[src.name]
	if !ok {
		return p.errAt(token{line: src.line, col: src.col}, "unknown quantum register %q", src.name)
	}
	cr, ok := p.cregs[dst.name]
	if !ok {
		return p.errAt(token{line: dst.line, col: dst.col}, "unknown classical register %q", dst.name)
	}
	switch {
	case src.indexed && dst.indexed:
		if src.index >= qr.size || dst.index >= cr.size {
			return p.errAt(token{line: src.line, col: src.col}, "measure index out of range")
		}
		p.ops = append(p.ops, qc.Op{Kind: qc.KindMeasure, Targets: []int{qr.offset + src.index}, Cbit: cr.offset + dst.index})
	case !src.indexed && !dst.indexed:
		if qr.size != cr.size {
			return p.errAt(token{line: src.line, col: src.col}, "measure register sizes differ (%d vs %d)", qr.size, cr.size)
		}
		for i := 0; i < qr.size; i++ {
			p.ops = append(p.ops, qc.Op{Kind: qc.KindMeasure, Targets: []int{qr.offset + i}, Cbit: cr.offset + i})
		}
	default:
		return p.errAt(token{line: src.line, col: src.col}, "measure operands must both be indexed or both be registers")
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
	for p.peek().kind != tokSemicolon {
		op, err := p.parseOperand()
		if err != nil {
			return err
		}
		if _, ok := p.qregs[op.name]; !ok {
			return p.errAt(token{line: op.line, col: op.col}, "unknown quantum register %q", op.name)
		}
		if p.peek().kind == tokComma {
			p.advance()
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
		for p.peek().kind != tokRParen {
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			v, err := e.eval(nil)
			if err != nil {
				return err
			}
			params = append(params, v)
			if p.peek().kind == tokComma {
				p.advance()
			}
		}
		p.advance()
	}
	var operands []operand
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

func (p *refParser) parseExpr() (expr, error) {
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
		l = binExpr{op: op, l: l, r: r, line: t.line, col: t.col}
	}
}

func (p *refParser) parseTerm() (expr, error) {
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
		l = binExpr{op: op, l: l, r: r, line: t.line, col: t.col}
	}
}

func (p *refParser) parseUnary() (expr, error) {
	if t := p.peek(); t.kind == tokMinus {
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return unaryExpr{op: '-', x: x}, nil
	}
	return p.parsePow()
}

func (p *refParser) parsePow() (expr, error) {
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
		return binExpr{op: '^', l: base, r: exp, line: t.line, col: t.col}, nil
	}
	return base, nil
}

func (p *refParser) parsePrimary() (expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.advance()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, &Error{Line: t.line, Col: t.col, Msg: fmt.Sprintf("malformed number %q", t.text)}
		}
		return numExpr(v), nil
	case tokIdent:
		p.advance()
		if t.text == "pi" {
			return piExpr{}, nil
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
			return callExpr{fn: t.text, arg: arg, line: t.line, col: t.col}, nil
		}
		return varExpr{name: t.text, line: t.line, col: t.col}, nil
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
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	var out []token
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
