package qasm

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"quantumdd/internal/qc"
)

// reg describes a declared quantum or classical register: a contiguous
// slice of the flattened global index space of its kind.
type reg struct {
	offset  int
	size    int
	quantum bool
}

// macro is a user-defined gate ("gate name(params) qargs { body }").
type macro struct {
	name    string
	nparams int
	nqargs  int
	body    []macroStmt
}

// macroStmt is one gate call of a macro body, resolved when the body
// is parsed: the callee is a native gate or an earlier macro, each
// parameter is compiled over the macro's formal parameters and each
// qubit argument is an index into its qubit arguments. Barriers in a
// body are scheduling hints and leave no statement.
type macroStmt struct {
	name      string
	gate      native
	inner     *macro // the callee when it is a macro, else nil
	params    []expr
	qargs     []int
	line, col int
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
//
// The parser builds the circuit's ops in place. Their Targets,
// Controls and Params slices, and the Bits of their conditions, are
// cut from a few shared slabs (see take), and the scratch lists of a
// statement live in small arrays inside the parser, so a parse
// allocates little beyond the op array it returns.
type parser struct {
	tok   token // lookahead: the next unconsumed token
	lex   []lexer
	incAt []token

	regs   map[string]reg // quantum and classical share one namespace
	nq, nc int
	macros map[string]*macro

	ops    []qc.Op
	ints   []int
	ctls   []qc.Control
	floats []float64

	// Scratch: the operands of the statement being parsed, the qubits
	// and parameter values of the gate applications in flight (stacks,
	// as macro expansions nest), the formal parameters of the gate
	// being declared and the code and value stack of an expression.
	operands []operand
	qubits   []int
	params   []float64
	formals  []string
	code     expr
	stack    []float64

	operandBuf [4]operand
	qubitBuf   [16]int
	paramBuf   [8]float64
	codeBuf    [8]instr
	stackBuf   [8]float64

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
		lex:     []lexer{newLexer(src)},
		regs:    map[string]reg{},
		resolve: resolve,
	}
	p.operands = p.operandBuf[:0]
	p.qubits = p.qubitBuf[:0]
	p.params = p.paramBuf[:0]
	p.code = p.codeBuf[:0]
	p.stack = p.stackBuf[:0]
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
	circ.Ops = p.ops
	if circ.Ops == nil {
		circ.Ops = []qc.Op{}
	}
	return circ, nil
}

// maxPresize caps the pre-sized op array: comments may hold any
// number of ';', and the cap keeps such a source from buying a large
// array.
const maxPresize = 1 << 12

// take cuts n elements from the free end of *slab for the op being
// built, starting a new slab when too little is left. A new slab has
// room for one element per op that the op array still has room for,
// which tracks the op array as it grows. The result has no spare
// capacity, so an append to one op's slice reallocates rather than
// write into its neighbour's.
func take[T any](p *parser, slab *[]T, n int) []T {
	s := *slab
	if cap(s)-len(s) < n {
		s = make([]T, 0, max(n, cap(p.ops)-len(p.ops)+1))
	}
	i := len(s)
	s = s[:i+n]
	*slab = s
	return s[i : i+n : i+n]
}

// newOp appends a zero op to the circuit's ops and returns it to be
// filled in. The parser has checked what qc.Circuit.Append would:
// qubits and bits inside the registers declared so far, distinct
// operands, and each gate's parameter and target counts.
func (p *parser) newOp(kind qc.OpKind) *qc.Op {
	if p.ops == nil {
		// Every op statement ends in ';'. Those left in the main
		// source, this statement's and the lookahead's size the op
		// array, unless broadcasts, macros or includes add more.
		// Counting from the first op leaves out the declarations
		// before it.
		main := &p.lex[0]
		n := strings.Count(main.src[main.pos:], ";") + 1
		if p.tok.kind == tokSemicolon {
			n++
		}
		p.ops = make([]qc.Op, 0, min(n, maxPresize))
	}
	p.ops = append(p.ops, qc.Op{Kind: kind})
	return &p.ops[len(p.ops)-1]
}

// targets copies qs into the slab for the ops' qubit lists.
func (p *parser) targets(qs ...int) []int {
	s := take(p, &p.ints, len(qs))
	copy(s, qs)
	return s
}

// advance consumes the lookahead token and reads the next one from the
// innermost lexer, returning to the including source at the end of an
// included file. After a lex error the stream reads as end of input.
func (p *parser) advance() {
	for {
		l := &p.lex[len(p.lex)-1]
		if l.err != nil {
			p.tok = token{kind: tokEOF, line: l.line, col: l.col}
			return
		}
		if l.err = l.scan(&p.tok); l.err != nil {
			continue
		}
		if p.tok.kind == tokEOF && len(p.lex) > 1 {
			p.lex = p.lex[:len(p.lex)-1]
			p.incAt = p.incAt[:len(p.incAt)-1]
			continue
		}
		return
	}
}

// lexError returns the lex error that lexing every source up front
// would have reported, or nil. Sources are checked outermost first:
// the main source was lexed before parsing began, and each include
// when its statement was reached. Included files already popped from
// the stack lexed cleanly to their end.
func (p *parser) lexError() error {
	for i := range p.lex {
		l := &p.lex[i]
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
	t := p.tok
	if t.kind != kind {
		return p.errAt(t, "expected %s, found %s %q", kind, t.kind, t.text)
	}
	p.advance()
	return nil
}

// listNext reads what follows an item of a comma-separated list that
// ends at the token close: it consumes a ',' and reports that another
// item follows, or reports the end of the list at close.
func (p *parser) listNext(close tokenKind) (bool, error) {
	switch t := p.tok; t.kind {
	case tokComma:
		p.advance()
		return true, nil
	case close:
		return false, nil
	default:
		return false, p.errAt(t, "expected ',' or %s, found %s %q", close, t.kind, t.text)
	}
}

func (p *parser) parseProgram() error {
	// Optional version header.
	if t := p.tok; t.kind == tokIdent && t.text == "OPENQASM" {
		p.advance()
		v := p.tok
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
	for p.tok.kind != tokEOF {
		if err := p.parseStatement(); err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) parseStatement() error {
	t := p.tok
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
	t := p.tok
	if t.kind != tokString {
		return p.errAt(t, "expected file name string after include")
	}
	p.advance()
	if p.tok.kind != tokSemicolon {
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
	name := p.tok
	if name.kind != tokIdent {
		return p.errAt(name, "expected register name")
	}
	p.advance()
	if err := p.expect(tokLBracket); err != nil {
		return err
	}
	sz := p.tok
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
	if _, dup := p.regs[name.text]; dup {
		return p.errAt(name, "register %q already declared", name.text)
	}
	r := reg{size: size, quantum: quantum}
	if quantum {
		r.offset = p.nq
		p.nq += size
	} else {
		r.offset = p.nc
		p.nc += size
	}
	p.regs[name.text] = r
	return nil
}

// qreg looks up a quantum register.
func (p *parser) qreg(name string) (reg, bool) {
	r, ok := p.regs[name]
	return r, ok && r.quantum
}

// creg looks up a classical register.
func (p *parser) creg(name string) (reg, bool) {
	r, ok := p.regs[name]
	return r, ok && !r.quantum
}

func (p *parser) parseOpaque() error {
	// opaque name(params?) qargs ;  — declared but never executable.
	for p.tok.kind != tokSemicolon && p.tok.kind != tokEOF {
		p.advance()
	}
	return p.expect(tokSemicolon)
}

func (p *parser) parseGateDecl() error {
	p.advance()
	nameTok := p.tok
	if nameTok.kind != tokIdent {
		return p.errAt(nameTok, "expected gate name")
	}
	p.advance()
	m := &macro{name: nameTok.text}
	if _, exists := p.macros[m.name]; exists {
		return p.errAt(nameTok, "gate %q already defined", m.name)
	}
	if _, native := lookupNative(m.name); native {
		// Re-declaring a builtin (as qelib1.inc itself would) is
		// accepted; the builtin implementation wins.
		return p.skipGateBody()
	}
	var formals, qargs []string
	if p.tok.kind == tokLParen {
		p.advance()
		for more := p.tok.kind != tokRParen; more; {
			t := p.tok
			if t.kind != tokIdent {
				return p.errAt(t, "expected parameter name")
			}
			formals = append(formals, t.text)
			p.advance()
			var err error
			if more, err = p.listNext(tokRParen); err != nil {
				return err
			}
		}
		p.advance() // ')'
	}
	for {
		t := p.tok
		if t.kind != tokIdent {
			return p.errAt(t, "expected qubit argument name")
		}
		qargs = append(qargs, t.text)
		p.advance()
		if p.tok.kind == tokComma {
			p.advance()
			continue
		}
		break
	}
	if err := p.expect(tokLBrace); err != nil {
		return err
	}
	m.nparams, m.nqargs = len(formals), len(qargs)
	p.formals = formals
	for p.tok.kind != tokRBrace {
		if err := p.parseMacroStmt(m, qargs); err != nil {
			return err
		}
	}
	p.advance() // '}'
	p.formals = nil
	if p.macros == nil {
		p.macros = map[string]*macro{}
	}
	p.macros[m.name] = m
	return nil
}

// skipGateBody consumes the remainder of a gate declaration whose
// implementation is already built in.
func (p *parser) skipGateBody() error {
	depth := 0
	for {
		t := p.tok
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

// parseMacroStmt parses one statement of the body of m, whose qubit
// arguments are qargs, and appends it to m.body.
func (p *parser) parseMacroStmt(m *macro, qargs []string) error {
	t := p.tok
	if t.kind != tokIdent {
		return p.errAt(t, "expected gate call in gate body")
	}
	if t.text == "barrier" {
		// barrier inside a macro is a scheduling hint; skip operands.
		for p.tok.kind != tokSemicolon && p.tok.kind != tokEOF {
			p.advance()
		}
		return p.expect(tokSemicolon)
	}
	st := macroStmt{name: t.text, line: t.line, col: t.col}
	// OpenQASM 2.0 requires gates to be defined before use, which also
	// rules out (mutual) recursion: a gate is not visible inside its
	// own body.
	if n, ok := lookupNative(t.text); ok {
		st.gate = n
	} else if st.inner = p.macros[t.text]; st.inner == nil {
		return p.errAt(t, "unknown gate %q in body of %q (gates must be defined before use)", t.text, m.name)
	}
	p.advance()
	if p.tok.kind == tokLParen {
		p.advance()
		for more := p.tok.kind != tokRParen; more; {
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			st.params = append(st.params, append(expr(nil), e...))
			if more, err = p.listNext(tokRParen); err != nil {
				return err
			}
		}
		p.advance()
	}
	for {
		a := p.tok
		if a.kind != tokIdent {
			return p.errAt(a, "expected qubit argument")
		}
		// A repeated argument name binds to its last position.
		idx := -1
		for i, q := range qargs {
			if q == a.text {
				idx = i
			}
		}
		if idx < 0 {
			return p.errAt(a, "unknown qubit argument %q in gate %q", a.text, m.name)
		}
		st.qargs = append(st.qargs, idx)
		p.advance()
		if p.tok.kind == tokComma {
			p.advance()
			continue
		}
		break
	}
	if err := p.expect(tokSemicolon); err != nil {
		return err
	}
	m.body = append(m.body, st)
	return nil
}

// operand is a parsed quantum/classical argument: whole register or a
// single indexed bit. resolveQubits fills in its register.
type operand struct {
	name    string
	indexed bool
	index   int
	line    int
	col     int
	reg     reg
}

// parseOperand parses an operand into op.
func (p *parser) parseOperand(op *operand) error {
	t := &p.tok // the lookahead, which advance overwrites
	if t.kind != tokIdent {
		return p.errAt(*t, "expected register operand")
	}
	*op = operand{name: t.text, line: t.line, col: t.col}
	p.advance()
	if t.kind == tokLBracket {
		p.advance()
		if t.kind != tokNumber {
			return p.errAt(*t, "expected index")
		}
		index, err := strconv.Atoi(t.text)
		if err != nil {
			return p.errAt(*t, "invalid index %q", t.text)
		}
		op.index = index
		p.advance()
		if err := p.expect(tokRBracket); err != nil {
			return err
		}
		op.indexed = true
	}
	return nil
}

// at is the operand's position, for error messages.
func (o *operand) at() token { return token{line: o.line, col: o.col} }

// resolveQubits checks the operands of a gate call against the quantum
// registers and returns how many applications qelib1 broadcasting
// makes of it: whole registers must share a common size n, single
// qubits repeat n times. No application may use a qubit twice.
func (p *parser) resolveQubits(operands []operand) (int, error) {
	width := 1
	for i := range operands {
		o := &operands[i]
		r, ok := p.qreg(o.name)
		if !ok {
			return 0, p.errAt(o.at(), "unknown quantum register %q", o.name)
		}
		o.reg = r
		if o.indexed {
			if o.index < 0 || o.index >= r.size {
				return 0, p.errAt(o.at(), "index %d out of range for %s[%d]", o.index, o.name, r.size)
			}
			continue
		}
		if width == 1 {
			width = r.size
		} else if r.size != width {
			return 0, p.errAt(o.at(), "broadcast register sizes differ (%d vs %d)", r.size, width)
		}
	}
	for rep := 0; rep < width; rep++ {
		base := len(p.qubits)
		if q, dup := repeated(p.application(operands, rep)); dup {
			return 0, p.errAt(operands[0].at(), "gate operands overlap on qubit %d", q)
		}
		p.qubits = p.qubits[:base]
	}
	return width, nil
}

// application pushes the global qubits of application rep of a
// resolved operand list onto the qubit stack and returns them.
func (p *parser) application(operands []operand, rep int) []int {
	base := len(p.qubits)
	for i := range operands {
		o := &operands[i]
		k := o.index
		if !o.indexed {
			k = rep
			if o.reg.size == 1 {
				k = 0
			}
		}
		p.qubits = append(p.qubits, o.reg.offset+k)
	}
	return p.qubits[base:]
}

// repeated returns the first qubit of qs that an earlier one equals.
func repeated(qs []int) (int, bool) {
	if len(qs) > 32 {
		seen := make(map[int]bool, len(qs))
		for _, q := range qs {
			if seen[q] {
				return q, true
			}
			seen[q] = true
		}
		return 0, false
	}
	for i, q := range qs {
		for _, e := range qs[:i] {
			if e == q {
				return q, true
			}
		}
	}
	return 0, false
}

func (p *parser) parseMeasure(cond *qc.Condition) error {
	p.advance()
	var src, dst operand
	if err := p.parseOperand(&src); err != nil {
		return err
	}
	if err := p.expect(tokArrow); err != nil {
		return err
	}
	if err := p.parseOperand(&dst); err != nil {
		return err
	}
	if err := p.expect(tokSemicolon); err != nil {
		return err
	}
	if cond != nil {
		return p.errAt(src.at(), "classically-controlled measure is not supported")
	}
	qr, ok := p.qreg(src.name)
	if !ok {
		return p.errAt(src.at(), "unknown quantum register %q", src.name)
	}
	cr, ok := p.creg(dst.name)
	if !ok {
		return p.errAt(dst.at(), "unknown classical register %q", dst.name)
	}
	switch {
	case src.indexed && dst.indexed:
		if src.index >= qr.size || dst.index >= cr.size {
			return p.errAt(src.at(), "measure index out of range")
		}
		op := p.newOp(qc.KindMeasure)
		op.Targets, op.Cbit = p.targets(qr.offset+src.index), cr.offset+dst.index
	case !src.indexed && !dst.indexed:
		if qr.size != cr.size {
			return p.errAt(src.at(), "measure register sizes differ (%d vs %d)", qr.size, cr.size)
		}
		for i := 0; i < qr.size; i++ {
			op := p.newOp(qc.KindMeasure)
			op.Targets, op.Cbit = p.targets(qr.offset+i), cr.offset+i
		}
	default:
		return p.errAt(src.at(), "measure operands must both be indexed or both be registers")
	}
	return nil
}

func (p *parser) parseReset(cond *qc.Condition) error {
	t := p.tok
	p.advance()
	var op operand
	if err := p.parseOperand(&op); err != nil {
		return err
	}
	if err := p.expect(tokSemicolon); err != nil {
		return err
	}
	if cond != nil {
		return p.errAt(t, "classically-controlled reset is not supported")
	}
	r, ok := p.qreg(op.name)
	if !ok {
		return p.errAt(t, "unknown quantum register %q", op.name)
	}
	if op.indexed {
		if op.index >= r.size {
			return p.errAt(t, "reset index out of range")
		}
		p.newOp(qc.KindReset).Targets = p.targets(r.offset + op.index)
		return nil
	}
	for i := 0; i < r.size; i++ {
		p.newOp(qc.KindReset).Targets = p.targets(r.offset + i)
	}
	return nil
}

func (p *parser) parseBarrier() error {
	p.advance()
	// Operands are irrelevant for the breakpoint semantics; validate
	// they name known registers, then emit a single barrier.
	var op operand
	for more := p.tok.kind != tokSemicolon; more; {
		if err := p.parseOperand(&op); err != nil {
			return err
		}
		if _, ok := p.qreg(op.name); !ok {
			return p.errAt(op.at(), "unknown quantum register %q", op.name)
		}
		var err error
		if more, err = p.listNext(tokSemicolon); err != nil {
			return err
		}
	}
	p.advance() // ';'
	p.newOp(qc.KindBarrier)
	return nil
}

func (p *parser) parseIf() error {
	p.advance() // 'if'
	if err := p.expect(tokLParen); err != nil {
		return err
	}
	regTok := p.tok
	if regTok.kind != tokIdent {
		return p.errAt(regTok, "expected classical register in if condition")
	}
	p.advance()
	cr, ok := p.creg(regTok.text)
	if !ok {
		return p.errAt(regTok, "unknown classical register %q", regTok.text)
	}
	if err := p.expect(tokEqEq); err != nil {
		return err
	}
	valTok := p.tok
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
	bits := take(p, &p.ints, cr.size)
	for i := range bits {
		bits[i] = cr.offset + i
	}
	cond := &qc.Condition{Bits: bits, Value: value}
	st := p.tok
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
	nameTok := p.tok
	p.advance()
	params := p.params[:0]
	if p.tok.kind == tokLParen {
		p.advance()
		for more := p.tok.kind != tokRParen; more; {
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			v, err := p.eval(e, nil)
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
	p.params = params
	operands := p.operands[:0]
	for {
		operands = append(operands, operand{})
		if err := p.parseOperand(&operands[len(operands)-1]); err != nil {
			return err
		}
		if p.tok.kind == tokComma {
			p.advance()
			continue
		}
		break
	}
	p.operands = operands
	if err := p.expect(tokSemicolon); err != nil {
		return err
	}
	width, err := p.resolveQubits(operands)
	if err != nil {
		return err
	}
	for rep := 0; rep < width; rep++ {
		base := len(p.qubits)
		if err := p.emitGate(nameTok, nameTok.text, params, p.application(operands, rep), cond); err != nil {
			return err
		}
		p.qubits = p.qubits[:base]
	}
	return nil
}

// emitGate lowers one gate application (builtin, qelib1 native, or
// user macro) onto global qubit indices.
func (p *parser) emitGate(at token, name string, params []float64, qubits []int, cond *qc.Condition) error {
	if n, ok := lookupNative(name); ok {
		return p.emitNative(at, name, n, params, qubits, cond)
	}
	if m, ok := p.macros[name]; ok {
		if len(params) != m.nparams {
			return p.errAt(at, "gate %q takes %d parameter(s), got %d", name, m.nparams, len(params))
		}
		if len(qubits) != m.nqargs {
			return p.errAt(at, "gate %q takes %d qubit(s), got %d", name, m.nqargs, len(qubits))
		}
		return p.expandMacro(at, m, params, qubits, cond, 0)
	}
	return p.errAt(at, "unknown gate %q", name)
}

// emitNative appends the op of native gate n applied to qubits.
func (p *parser) emitNative(at token, name string, n native, params []float64, qubits []int, cond *qc.Condition) error {
	if len(params) != n.params {
		return p.errAt(at, "gate %q takes %d parameter(s), got %d", name, n.params, len(params))
	}
	if len(qubits) != n.qubits() {
		return p.errAt(at, "gate %q takes %d qubit(s), got %d", name, n.qubits(), len(qubits))
	}
	// A gate body may name one qubit argument twice, or bind two to
	// one qubit.
	if q, dup := repeated(qubits); dup {
		return p.errAt(at, "gate operands overlap on qubit %d", q)
	}
	op := p.newOp(qc.KindGate)
	op.Gate, op.Cond = n.gate, cond
	switch {
	case n.ctrls > 0:
		op.Controls = take(p, &p.ctls, n.ctrls)
		for i := range op.Controls {
			op.Controls[i] = qc.Control{Qubit: qubits[i]}
		}
	case !n.nilCtl:
		op.Controls = []qc.Control{}
	}
	op.Targets = p.targets(qubits[n.ctrls:]...)
	if n.params > 0 {
		if n.u2 {
			op.Params = take(p, &p.floats, 3)
			op.Params[0] = math.Pi / 2
			copy(op.Params[1:], params)
		} else {
			op.Params = take(p, &p.floats, n.params)
			copy(op.Params, params)
		}
	}
	return nil
}

const maxMacroDepth = 64

// expandMacro emits the body of m with params as the values of its
// formal parameters and qubits as its qubit arguments. Each body
// statement's values and qubits go on the parser's stacks above the
// caller's, which params and qubits may be part of.
func (p *parser) expandMacro(at token, m *macro, params []float64, qubits []int, cond *qc.Condition, depth int) error {
	if depth > maxMacroDepth {
		return p.errAt(at, "gate expansion exceeds depth %d (recursive definition?)", maxMacroDepth)
	}
	for i := range m.body {
		st := &m.body[i]
		pbase, qbase := len(p.params), len(p.qubits)
		for _, e := range st.params {
			v, err := p.eval(e, params)
			if err != nil {
				return err
			}
			p.params = append(p.params, v)
		}
		for _, a := range st.qargs {
			p.qubits = append(p.qubits, qubits[a])
		}
		vals, qs := p.params[pbase:], p.qubits[qbase:]
		stTok := token{line: st.line, col: st.col}
		var err error
		if inner := st.inner; inner != nil {
			if len(vals) != inner.nparams || len(qs) != inner.nqargs {
				return p.errAt(stTok, "gate %q arity mismatch inside %q", st.name, m.name)
			}
			err = p.expandMacro(stTok, inner, vals, qs, cond, depth+1)
		} else {
			err = p.emitNative(stTok, st.name, st.gate, vals, qs, cond)
		}
		if err != nil {
			return err
		}
		p.params, p.qubits = p.params[:pbase], p.qubits[:qbase]
	}
	return nil
}

// native describes how a builtin gate lowers onto the IR: its first
// ctrls qubit operands become controls, the rest (one, or two for the
// swap family) targets.
type native struct {
	gate   qc.Gate
	params int // angle parameters the call takes
	ctrls  int
	swap   bool
	u2     bool // the op's Params are (π/2, φ, λ) for the call's (φ, λ)
	nilCtl bool // without controls, Controls is nil rather than empty
}

func (n native) qubits() int {
	if n.swap {
		return n.ctrls + 2
	}
	return n.ctrls + 1
}

// lookupNative finds a builtin primitive (U, CX) or a gate of the
// qelib1 standard library, mapped directly onto the IR.
func lookupNative(name string) (native, bool) {
	switch name {
	// OpenQASM primitives and the general single-qubit gates.
	case "U", "u3", "u":
		return native{gate: qc.U, params: 3, nilCtl: true}, true
	case "u2":
		return native{gate: qc.U, params: 2, u2: true, nilCtl: true}, true
	case "CX", "cx":
		return native{gate: qc.X, ctrls: 1}, true
	// qelib1 single-qubit gates.
	case "id":
		return native{gate: qc.I}, true
	case "x":
		return native{gate: qc.X}, true
	case "y":
		return native{gate: qc.Y}, true
	case "z":
		return native{gate: qc.Z}, true
	case "h":
		return native{gate: qc.H}, true
	case "s":
		return native{gate: qc.S}, true
	case "sdg":
		return native{gate: qc.Sdg}, true
	case "t":
		return native{gate: qc.T}, true
	case "tdg":
		return native{gate: qc.Tdg}, true
	case "sx":
		return native{gate: qc.SX}, true
	case "sxdg":
		return native{gate: qc.SXdg}, true
	case "v":
		return native{gate: qc.V}, true
	case "vdg":
		return native{gate: qc.Vdg}, true
	case "p", "u1":
		return native{gate: qc.P, params: 1}, true
	case "rx":
		return native{gate: qc.RX, params: 1}, true
	case "ry":
		return native{gate: qc.RY, params: 1}, true
	case "rz":
		return native{gate: qc.RZ, params: 1}, true
	// Controlled gates.
	case "cy":
		return native{gate: qc.Y, ctrls: 1}, true
	case "cz":
		return native{gate: qc.Z, ctrls: 1}, true
	case "ch":
		return native{gate: qc.H, ctrls: 1}, true
	case "csx":
		return native{gate: qc.SX, ctrls: 1}, true
	case "cp", "cu1":
		return native{gate: qc.P, params: 1, ctrls: 1}, true
	case "crx":
		return native{gate: qc.RX, params: 1, ctrls: 1}, true
	case "cry":
		return native{gate: qc.RY, params: 1, ctrls: 1}, true
	case "crz":
		return native{gate: qc.RZ, params: 1, ctrls: 1}, true
	case "cu3":
		return native{gate: qc.U, params: 3, ctrls: 1}, true
	case "ccx":
		return native{gate: qc.X, ctrls: 2}, true
	case "ccz":
		return native{gate: qc.Z, ctrls: 2}, true
	// Swap family.
	case "swap":
		return native{gate: qc.Swap, swap: true, nilCtl: true}, true
	case "cswap":
		return native{gate: qc.Swap, ctrls: 1, swap: true}, true
	}
	return native{}, false
}
