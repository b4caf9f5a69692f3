package qasm

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"quantumdd/internal/qc"
)

// reg describes a declared quantum or classical register: a contiguous
// slice of the flattened global index space.
type reg struct {
	offset int
	size   int
}

// macro is a user-defined gate ("gate name(params) qargs { body }").
type macro struct {
	name   string
	params []string
	qargs  []string
	body   []macroStmt
}

// macroStmt is one statement of a macro body: a gate call on formal
// arguments, or a barrier (which is a no-op inside macros here).
type macroStmt struct {
	name    string
	params  []expr
	qargs   []string
	barrier bool
	line    int
	col     int
}

// parser is a recursive-descent parser with one token of lookahead,
// pulled on demand from a stack of lexers: lex[0] reads the main
// source and each include pushes a lexer for the included file (incAt
// holds the file-name token of the include statement that pushed it).
//
// Errors are reported as if the whole source were lexed before
// parsing starts: a lex error anywhere in the main source wins over
// any parse error, and an include's lex error is reported at its
// include statement. A lexer that fails ends the token stream, and
// after parsing lexError drains what is left of the open sources (on
// success, nothing) to find the lex error that takes precedence.
type parser struct {
	tok   token // lookahead: the next unconsumed token
	lex   []*lexer
	incAt []token

	qregs  map[string]reg
	cregs  map[string]reg
	qorder []string // declaration order, for stable flattening
	corder []string
	nq, nc int
	macros map[string]*macro
	ops    []qc.Op

	resolve IncludeResolver
}

// IncludeResolver loads the source text of an include file by name.
// "qelib1.inc" is always handled by the built-in gate set and never
// reaches the resolver.
type IncludeResolver func(name string) (string, error)

// Parse compiles OpenQASM 2.0 source into a circuit. Multiple quantum
// (classical) registers are flattened into one index space in
// declaration order. Includes other than qelib1.inc are rejected; use
// ParseWithIncludes or ParseFile to allow them.
func Parse(src string) (*qc.Circuit, error) {
	return ParseWithIncludes(src, nil)
}

// ParseFile parses a .qasm file, resolving includes relative to the
// file's directory.
func ParseFile(path string) (*qc.Circuit, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(path)
	return ParseWithIncludes(string(data), func(name string) (string, error) {
		inc, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return "", err
		}
		return string(inc), nil
	})
}

// ParseWithIncludes parses source with a custom include resolver.
func ParseWithIncludes(src string, resolve IncludeResolver) (*qc.Circuit, error) {
	p := &parser{
		lex:     []*lexer{newLexer(src)},
		qregs:   map[string]reg{},
		cregs:   map[string]reg{},
		macros:  map[string]*macro{},
		resolve: resolve,
	}
	p.advance() // load the lookahead
	err := p.parseProgram()
	if lerr := p.lexError(); lerr != nil {
		return nil, lerr
	}
	if err != nil {
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

func (p *parser) peek() token { return p.tok }

// advance consumes the lookahead token and pulls the next one from the
// innermost lexer, returning to the including source at the end of an
// included file. After a lex error the stream reads as end of input.
func (p *parser) advance() token {
	t := p.tok
	for {
		l := p.lex[len(p.lex)-1]
		if l.err != nil {
			p.tok = token{kind: tokEOF, line: l.line, col: l.col}
			return t
		}
		next, err := l.next()
		if err != nil {
			l.err = err
			continue
		}
		if next.kind == tokEOF && len(p.lex) > 1 {
			p.lex = p.lex[:len(p.lex)-1]
			p.incAt = p.incAt[:len(p.incAt)-1]
			continue
		}
		p.tok = next
		return t
	}
}

// lexError returns the lex error that lexing every source up front
// would have reported, or nil. Sources are checked outermost first:
// the main source was lexed before parsing began, and each include
// when its statement was reached. Included files already popped from
// the stack lexed cleanly to their end.
func (p *parser) lexError() error {
	for i, l := range p.lex {
		err := l.err
		if err == nil {
			err = l.drain()
		}
		if err == nil {
			continue
		}
		if i == 0 {
			return err
		}
		at := p.incAt[i-1]
		return p.errAt(at, "include %q: %v", at.text, err)
	}
	return nil
}

func (p *parser) errAt(t token, format string, args ...interface{}) *Error {
	return &Error{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(kind tokenKind) error {
	t := p.peek()
	if t.kind != kind {
		return p.errAt(t, "expected %s, found %s %q", kind, t.kind, t.text)
	}
	p.advance()
	return nil
}

func (p *parser) parseProgram() error {
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

func (p *parser) parseStatement() error {
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

// maxIncludeDepth bounds how many included files may be open at once,
// which stops an include cycle.
const maxIncludeDepth = 16

func (p *parser) parseInclude() error {
	p.advance()
	t := p.peek()
	if t.kind != tokString {
		return p.errAt(t, "expected file name string after include")
	}
	p.advance()
	if p.peek().kind != tokSemicolon {
		return p.expect(tokSemicolon)
	}
	if t.text == "qelib1.inc" {
		// The standard library is built in.
		p.advance()
		return nil
	}
	if p.resolve == nil {
		return p.errAt(t, "include %q not available (only \"qelib1.inc\" is built in; use ParseFile for file includes)", t.text)
	}
	if len(p.lex) > maxIncludeDepth {
		return p.errAt(t, "includes nested deeper than %d (cycle?)", maxIncludeDepth)
	}
	src, err := p.resolve(t.text)
	if err != nil {
		return p.errAt(t, "include %q: %v", t.text, err)
	}
	// Push the included source before consuming the ';', so the next
	// lookahead is the included file's first token.
	p.lex = append(p.lex, newLexer(src))
	p.incAt = append(p.incAt, t)
	p.advance()
	return nil
}

func (p *parser) parseRegDecl(quantum bool) error {
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

func (p *parser) parseOpaque() error {
	// opaque name(params?) qargs ;  — declared but never executable.
	for p.peek().kind != tokSemicolon && p.peek().kind != tokEOF {
		p.advance()
	}
	return p.expect(tokSemicolon)
}

func (p *parser) parseGateDecl() error {
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

// skipGateBody consumes the remainder of a gate declaration whose
// implementation is already built in.
func (p *parser) skipGateBody() error {
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

func (p *parser) parseMacroStmt(m *macro) (macroStmt, error) {
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

// operand is a parsed quantum/classical argument: whole register or a
// single indexed bit.
type operand struct {
	name    string
	indexed bool
	index   int
	line    int
	col     int
}

func (p *parser) parseOperand() (operand, error) {
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

// resolveQubits flattens an operand list into per-repetition global
// qubit indices, implementing qelib1 broadcasting: whole registers
// must share a common size n, single qubits repeat n times.
func (p *parser) resolveQubits(operands []operand) ([][]int, error) {
	width := 1
	for _, o := range operands {
		r, ok := p.qregs[o.name]
		if !ok {
			return nil, p.errAt(token{line: o.line, col: o.col}, "unknown quantum register %q", o.name)
		}
		if o.indexed {
			if o.index < 0 || o.index >= r.size {
				return nil, p.errAt(token{line: o.line, col: o.col}, "index %d out of range for %s[%d]", o.index, o.name, r.size)
			}
			continue
		}
		if width == 1 {
			width = r.size
		} else if r.size != width {
			return nil, p.errAt(token{line: o.line, col: o.col}, "broadcast register sizes differ (%d vs %d)", r.size, width)
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
				return nil, p.errAt(token{line: operands[0].line, col: operands[0].col}, "gate operands overlap on qubit %d", q)
			}
			seen[q] = true
		}
		out[rep] = idx
	}
	return out, nil
}

func (p *parser) parseMeasure(cond *qc.Condition) error {
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

func (p *parser) parseReset(cond *qc.Condition) error {
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

func (p *parser) parseBarrier() error {
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

func (p *parser) parseIf() error {
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

// parseGateCall parses "name(params?) operands ;" and emits ops.
func (p *parser) parseGateCall(cond *qc.Condition) error {
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

// emitGate lowers one gate application (builtin, qelib1 native, or
// user macro) onto global qubit indices.
func (p *parser) emitGate(at token, name string, params []float64, qubits []int, cond *qc.Condition) error {
	if n, ok := natives[name]; ok {
		if len(params) != n.params {
			return p.errAt(at, "gate %q takes %d parameter(s), got %d", name, n.params, len(params))
		}
		if len(qubits) != n.qubits {
			return p.errAt(at, "gate %q takes %d qubit(s), got %d", name, n.qubits, len(qubits))
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

const maxMacroDepth = 64

func (p *parser) expandMacro(at token, m *macro, params []float64, qubits []int, cond *qc.Condition, depth int) error {
	if depth > maxMacroDepth {
		return p.errAt(at, "gate expansion exceeds depth %d (recursive definition?)", maxMacroDepth)
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
		stTok := token{line: st.line, col: st.col}
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

// native describes a builtin gate and its lowering to the IR.
type native struct {
	params int
	qubits int
	build  func(params []float64, q []int) (qc.Op, error)
}

func simple(g qc.Gate, nctrl int) native {
	return native{
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

func param1(g qc.Gate, nctrl int) native {
	n := simple(g, nctrl)
	n.params = 1
	base := n.build
	n.build = func(params []float64, q []int) (qc.Op, error) {
		op, err := base(nil, q)
		op.Params = []float64{params[0]}
		return op, err
	}
	return n
}

// natives lists the builtin primitives (U, CX) and the qelib1 standard
// library, mapped directly onto the IR.
var natives = map[string]native{
	// OpenQASM primitives.
	"U": {params: 3, qubits: 1, build: func(ps []float64, q []int) (qc.Op, error) {
		return qc.Op{Kind: qc.KindGate, Gate: qc.U, Params: []float64{ps[0], ps[1], ps[2]}, Targets: []int{q[0]}}, nil
	}},
	"CX": simple(qc.X, 1),
	// qelib1 single-qubit gates.
	"id":   simple(qc.I, 0),
	"x":    simple(qc.X, 0),
	"y":    simple(qc.Y, 0),
	"z":    simple(qc.Z, 0),
	"h":    simple(qc.H, 0),
	"s":    simple(qc.S, 0),
	"sdg":  simple(qc.Sdg, 0),
	"t":    simple(qc.T, 0),
	"tdg":  simple(qc.Tdg, 0),
	"sx":   simple(qc.SX, 0),
	"sxdg": simple(qc.SXdg, 0),
	"v":    simple(qc.V, 0),
	"vdg":  simple(qc.Vdg, 0),
	"p":    param1(qc.P, 0),
	"u1":   param1(qc.P, 0),
	"rx":   param1(qc.RX, 0),
	"ry":   param1(qc.RY, 0),
	"rz":   param1(qc.RZ, 0),
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
	"cx":  simple(qc.X, 1),
	"cy":  simple(qc.Y, 1),
	"cz":  simple(qc.Z, 1),
	"ch":  simple(qc.H, 1),
	"csx": simple(qc.SX, 1),
	"cp":  param1(qc.P, 1),
	"cu1": param1(qc.P, 1),
	"crx": param1(qc.RX, 1),
	"cry": param1(qc.RY, 1),
	"crz": param1(qc.RZ, 1),
	"cu3": {params: 3, qubits: 2, build: func(ps []float64, q []int) (qc.Op, error) {
		return qc.Op{Kind: qc.KindGate, Gate: qc.U, Params: []float64{ps[0], ps[1], ps[2]}, Targets: []int{q[1]}, Controls: []qc.Control{{Qubit: q[0]}}}, nil
	}},
	"ccx": simple(qc.X, 2),
	"ccz": simple(qc.Z, 2),
	// Swap family.
	"swap": {qubits: 2, build: func(ps []float64, q []int) (qc.Op, error) {
		return qc.Op{Kind: qc.KindGate, Gate: qc.Swap, Targets: []int{q[0], q[1]}}, nil
	}},
	"cswap": {qubits: 3, build: func(ps []float64, q []int) (qc.Op, error) {
		return qc.Op{Kind: qc.KindGate, Gate: qc.Swap, Targets: []int{q[1], q[2]}, Controls: []qc.Control{{Qubit: q[0]}}}, nil
	}},
}
