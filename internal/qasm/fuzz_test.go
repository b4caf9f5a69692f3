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
