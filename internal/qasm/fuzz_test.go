package qasm

import (
	"strings"
	"testing"
)

// parseSeeds is the seed corpus of FuzzParse, shared with the
// streaming-parser differential fuzz target.
var parseSeeds = []string{
	"",
	"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n",
	"qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[0];\nif (c==1) x q[0];\n",
	"qreg q[3];\ngate foo(a) x, y { cx x, y; p(a/2) y; }\nfoo(pi) q[0], q[2];\n",
	"qreg q[2];\nbarrier q;\nreset q[0];\nswap q[0],q[1];\n",
	"qreg q[2];\nu3(0.1,0.2,0.3) q;\n",
	"qreg q[1];\np((((pi)))) q[0];",
	"qreg q[1];\np(2^-2) q[0];",
	"// comment only",
	"OPENQASM 9.9;",
	"qreg q[999999];",
	"qreg q[2];\ncx q[0],q[0];",
	"gate g x { h x; }",
	"qreg q[1];\nh q[0]",
	"qreg q[1];\nh q[0]; \x00",
	"qreg q[1];\np(1e309) q[0];",
	"qreg q[1];\nh -> q[0];",
	"opaque o a;",
	"qreg q[1];\n/* */ h q[0];",
	// Rune semantics of the lexer: identifiers, digits and whitespace
	// are unicode classes, columns count runes and each invalid UTF-8
	// byte reads as one U+FFFD.
	"qreg ä[2]; h ä[0]; $",
	"qreg\u00a0q[2];\u0085h q[0];\u2028cx q[0],\u00a0q[1]; $",
	"qreg q[2];\nh q[\u0661];",
	"qreg q[\u0663];",
	"qreg q[1];\np(\u0663) q[0];",
	"qreg q\xff[1];",
	"qreg q[1\xff];",
	"qreg q[1];\nh q\xc3[0];",
	"qreg q[1]; // \xff\xfe ü\nh q[0]; /* \xc3 \x80\x80 é */ x q[0]; $",
	"include \"\xff.inc\";\nqreg q[1];",
	"include \"ü\xe2\x82.inc\";\nqreg q[1];",
	"OPENQASM 2.0;\r\nqreg q[2];\r\nh q[0];\r\ncx q[0],q[1];\r\n$",
	"qreg q[1];\nh q[0]; // ü€\n€ h q[0];",
	"qreg q[1]; /* ✓✓ */ #",
	"qreg q[1];\n/* ü€\nx",
	"qreg q[1];\n/* ü€",
	"include \"ü€",
	"qreg q[1];\nh q[0];\u3000\u00a0=",
	// Every native gate; repeated formal and qubit argument names
	// bind to their last position; a gate body must not apply a gate
	// to one qubit twice.
	"qreg q[3];\nid q[0]; x q[0]; y q[0]; z q[0]; h q[0]; s q[0]; sdg q[0];\nt q[0]; tdg q[0]; sx q[0]; sxdg q[0]; v q[0]; vdg q[0];\nu1(0.1) q[0]; u2(0.1,0.2) q[0]; u3(0.1,0.2,0.3) q[0]; u(0.1,0.2,0.3) q[0]; U(0.1,0.2,0.3) q[0]; p(0.1) q[0];\nrx(0.1) q[0]; ry(0.1) q[0]; rz(0.1) q[0];\nCX q[0],q[1]; cx q[0],q[1]; cy q[0],q[1]; cz q[0],q[1]; ch q[0],q[1]; csx q[0],q[1];\ncp(0.1) q[0],q[1]; cu1(0.1) q[0],q[1]; crx(0.1) q[0],q[1]; cry(0.1) q[0],q[1]; crz(0.1) q[0],q[1];\ncu3(0.1,0.2,0.3) q[0],q[1];\nccx q[0],q[1],q[2]; ccz q[0],q[1],q[2];\nswap q[0],q[1];\ncswap q[0],q[1],q[2];\n",
	"qreg q[2];\ngate g(a, a) x, x { rz(a) x; }\ng(1, 2) q[0], q[1];",
	"qreg q[1];\ngate g a { cx a, a; }\ng q[0];",
	"qreg q[2];\ngate g x, x { cx x, x; }\ng q[0], q[1];",
	"qreg q[2];\ngate g a, b { h a; }\ng q[0], q[0];",
}

// FuzzParse checks that the parser never panics and that accepted
// programs re-parse after a QASM export round trip. Under plain
// `go test` only the seed corpus runs; `go test -fuzz=FuzzParse`
// explores further.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		circ, err := Parse(src)
		if err != nil {
			return // rejected inputs only need to not panic
		}
		// Accepted programs round trip through the exporter (the
		// export may mark exotic ops unsupported; that still must
		// parse as comments).
		if circ.NQubits > 0 && circ.NQubits <= 16 {
			if _, err := Parse(circ.QASM()); err != nil && !strings.Contains(circ.QASM(), "unsupported") {
				t.Fatalf("exported QASM does not re-parse: %v\n%s", err, circ.QASM())
			}
		}
	})
}
