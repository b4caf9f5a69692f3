package qasm

import (
	"fmt"
	"math"
	"strconv"
)

// expr is a compiled parameter expression: its instructions in
// postfix order, evaluated against the formal parameters of a gate
// macro (none at top level). Evaluation is the post-order walk of the
// expression tree, so the first error it meets is the one a
// tree-walking evaluator would report.
type expr []instr

type opcode uint8

const (
	opNum opcode = iota // push val
	opVar               // push env[arg]
	opNeg
	opAdd
	opSub
	opMul
	opDiv
	opPow
	opSin
	opCos
	opTan
	opExp
	opLn
	opSqrt
	opCall // a call of an unknown function
)

type instr struct {
	op        opcode
	arg       int     // opVar: formal parameter index, -1 if name is not one
	val       float64 // opNum
	name      string  // opVar, opCall: the identifier, for error messages
	line, col int
}

func (in *instr) errf(format string, args ...interface{}) error {
	return &Error{Line: in.line, Col: in.col, Msg: fmt.Sprintf(format, args...)}
}

// function returns the opcode of a built-in function, or opCall for
// any other name.
func function(name string) opcode {
	switch name {
	case "sin":
		return opSin
	case "cos":
		return opCos
	case "tan":
		return opTan
	case "exp":
		return opExp
	case "ln":
		return opLn
	case "sqrt":
		return opSqrt
	}
	return opCall
}

// eval runs e with env as the values of the formal parameters, on
// the parser's reusable stack.
func (p *parser) eval(e expr, env []float64) (float64, error) {
	st := p.stack[:0]
	for i := range e {
		in := &e[i]
		switch in.op {
		case opNum:
			st = append(st, in.val)
			continue
		case opVar:
			if in.arg < 0 {
				return 0, in.errf("unknown parameter %q", in.name)
			}
			st = append(st, env[in.arg])
			continue
		case opCall:
			return 0, in.errf("unknown function %q", in.name)
		}
		top := len(st) - 1
		v := st[top]
		switch in.op {
		case opNeg:
			v = -v
		case opSin:
			v = math.Sin(v)
		case opCos:
			v = math.Cos(v)
		case opTan:
			v = math.Tan(v)
		case opExp:
			v = math.Exp(v)
		case opLn:
			if v <= 0 {
				return 0, in.errf("ln of non-positive value")
			}
			v = math.Log(v)
		case opSqrt:
			if v < 0 {
				return 0, in.errf("sqrt of negative value")
			}
			v = math.Sqrt(v)
		default:
			top--
			a, b := st[top], v
			switch in.op {
			case opAdd:
				v = a + b
			case opSub:
				v = a - b
			case opMul:
				v = a * b
			case opDiv:
				if b == 0 {
					return 0, in.errf("division by zero in parameter expression")
				}
				v = a / b
			case opPow:
				v = math.Pow(a, b)
			}
			st = st[:top+1]
		}
		st[top] = v
	}
	p.stack = st
	return st[0], nil
}

// Expression grammar (OpenQASM 2.0 §A.2):
//
//	expr   := term (('+'|'-') term)*
//	term   := unary (('*'|'/') unary)*
//	unary  := '-' unary | pow
//	pow    := primary ('^' unary)?
//	primary:= number | 'pi' | ident | ident '(' expr ')' | '(' expr ')'
//
// parseExpr compiles one expression and returns its instructions, a
// slice of p.code that the next parseExpr overwrites. Identifiers
// name formal parameters of p.formals; when a name repeats, the last
// one counts.
func (p *parser) parseExpr() (expr, error) {
	p.code = p.code[:0]
	if err := p.parseSum(); err != nil {
		return nil, err
	}
	return p.code, nil
}

func (p *parser) emit(op opcode, at token) {
	p.code = append(p.code, instr{op: op, line: at.line, col: at.col})
}

func (p *parser) parseSum() error {
	if err := p.parseTerm(); err != nil {
		return err
	}
	for {
		t := p.tok
		if t.kind != tokPlus && t.kind != tokMinus {
			return nil
		}
		p.advance()
		if err := p.parseTerm(); err != nil {
			return err
		}
		op := opAdd
		if t.kind == tokMinus {
			op = opSub
		}
		p.emit(op, t)
	}
}

func (p *parser) parseTerm() error {
	if err := p.parseUnary(); err != nil {
		return err
	}
	for {
		t := p.tok
		if t.kind != tokStar && t.kind != tokSlash {
			return nil
		}
		p.advance()
		if err := p.parseUnary(); err != nil {
			return err
		}
		op := opMul
		if t.kind == tokSlash {
			op = opDiv
		}
		p.emit(op, t)
	}
}

func (p *parser) parseUnary() error {
	if t := p.tok; t.kind == tokMinus {
		p.advance()
		if err := p.parseUnary(); err != nil {
			return err
		}
		p.emit(opNeg, t)
		return nil
	}
	return p.parsePow()
}

func (p *parser) parsePow() error {
	if err := p.parsePrimary(); err != nil {
		return err
	}
	if t := p.tok; t.kind == tokCaret {
		p.advance()
		if err := p.parseUnary(); err != nil {
			return err
		}
		p.emit(opPow, t)
	}
	return nil
}

func (p *parser) parsePrimary() error {
	t := p.tok
	switch t.kind {
	case tokNumber:
		p.advance()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return p.errAt(t, "malformed number %q", t.text)
		}
		p.code = append(p.code, instr{op: opNum, val: v})
		return nil
	case tokIdent:
		p.advance()
		if t.text == "pi" {
			p.code = append(p.code, instr{op: opNum, val: math.Pi})
			return nil
		}
		if p.tok.kind == tokLParen {
			p.advance()
			if err := p.parseSum(); err != nil {
				return err
			}
			if err := p.expect(tokRParen); err != nil {
				return err
			}
			p.code = append(p.code, instr{op: function(t.text), name: t.text, line: t.line, col: t.col})
			return nil
		}
		arg := -1
		for i, f := range p.formals {
			if f == t.text {
				arg = i
			}
		}
		p.code = append(p.code, instr{op: opVar, arg: arg, name: t.text, line: t.line, col: t.col})
		return nil
	case tokLParen:
		p.advance()
		if err := p.parseSum(); err != nil {
			return err
		}
		return p.expect(tokRParen)
	}
	return p.errAt(t, "expected expression, found %s", t.kind)
}
