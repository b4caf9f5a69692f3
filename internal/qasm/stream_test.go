package qasm

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"quantumdd/internal/qc"
)

// includeFiles is the file set the differential tests resolve
// includes against: clean libraries, a nested include, files with a
// lex error, a parse error or both, an empty file and a self-include.
var includeFiles = map[string]string{
	"lib.inc":      "gate g2 a, b { cx a, b; h b; }\n",
	"nest.inc":     "include \"lib.inc\";\ngate g3(t) a, b { g2 a, b; rz(t) b; }\n",
	"regs.inc":     "qreg r[2];\ncreg m[2];\n",
	"empty.inc":    "",
	"lexbad.inc":   "qreg r[1];\nh r[0]; $\n",
	"parsebad.inc": "qreg r[1];\nh r[0]\nx r[0];\n",
	"bothbad.inc":  "h h h;\n@\n",
	"lexlate.inc":  "include \"lib.inc\";\nqreg r[1];\nh r[0];\n/* unterminated",
	"self.inc":     "include \"self.inc\";\n",
	// A file name with an invalid byte resolves under its U+FFFD
	// spelling; lex errors after multi-byte runes count rune columns.
	"\ufffd.inc": "gate gx a { x a; }\n",
	"ü.inc":      "qreg r[1];\nh r[0]; \u00a0ü €\n",
}

func resolveIncludeFile(name string) (string, error) {
	if src, ok := includeFiles[name]; ok {
		return src, nil
	}
	return "", errors.New("no such file")
}

// circuitDigest spells out every field of a parsed circuit, with
// parameters as bit patterns so that NaN compares equal to itself,
// and which of an op's slices are nil rather than empty.
func circuitDigest(c *qc.Circuit) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %d %d nil:%t\n", c.Name, c.NQubits, c.NClbits, c.Ops == nil)
	for _, op := range c.Ops {
		bits := make([]uint64, len(op.Params))
		for i, p := range op.Params {
			bits[i] = math.Float64bits(p)
		}
		fmt.Fprintf(&b, "%d %d %x %v %v %d %q", op.Kind, op.Gate, bits, op.Targets, op.Controls, op.Cbit, op.Label)
		fmt.Fprintf(&b, " nil:%t,%t,%t", op.Params == nil, op.Targets == nil, op.Controls == nil)
		if op.Cond != nil {
			fmt.Fprintf(&b, " if %v==%d", op.Cond.Bits, op.Cond.Value)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// checkOps fails unless every op of c passes qc.Circuit.Append's
// checks and no slice of an op (or of its condition) has spare
// capacity, which an append could share with a neighbouring op.
func checkOps(t *testing.T, c *qc.Circuit) {
	t.Helper()
	re := qc.New(c.NQubits, c.NClbits)
	for i, op := range c.Ops {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("op %d (%s) fails qc.Circuit.Append: %v", i, op.String(), r)
				}
			}()
			re.Append(op)
		}()
		spare := cap(op.Params) != len(op.Params) || cap(op.Targets) != len(op.Targets) || cap(op.Controls) != len(op.Controls)
		if spare || op.Cond != nil && cap(op.Cond.Bits) != len(op.Cond.Bits) {
			t.Fatalf("op %d (%s) has a slice with spare capacity", i, op.String())
		}
	}
}

// checkSameParse parses src with the production parser and with the
// lex-everything-first reference and fails unless both return the
// same circuit (field by field and as exported QASM) or the same
// error text, and the production circuit passes checkOps. Sources that open more than maxIncludeDepth include
// files are skipped: the reference counts every include against that
// bound, the streaming parser only nested ones.
func checkSameParse(t *testing.T, src string) {
	t.Helper()
	opened := 0
	got, gerr := ParseWithIncludes(src, func(name string) (string, error) {
		opened++
		return resolveIncludeFile(name)
	})
	if opened > maxIncludeDepth {
		return
	}
	want, werr := refParseWithIncludes(src, resolveIncludeFile)
	switch {
	case gerr != nil || werr != nil:
		if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
			t.Fatalf("source %q:\nproduction error: %v\nreference error: %v", src, gerr, werr)
		}
	case circuitDigest(got) != circuitDigest(want) || got.QASM() != want.QASM():
		t.Fatalf("source %q: circuits differ\nproduction:\n%s\nreference:\n%s", src, circuitDigest(got), circuitDigest(want))
	default:
		checkOps(t, got)
	}
}

// includeSeeds exercise the include stack and the error precedence
// the streaming parser must keep: a main-source lex error wins over
// any parse error, and an include's lex error is reported at its
// include statement, ahead of parse errors inside or after it.
var includeSeeds = []string{
	"include \"lib.inc\";\nqreg q[2];\ng2 q[0], q[1];\n",
	"include \"nest.inc\";\nqreg q[2];\ng3(pi/2) q[0], q[1];\n",
	"include \"regs.inc\";\nh r;\nmeasure r -> m;\n",
	"include \"empty.inc\";\ninclude \"empty.inc\";\nqreg q[1];\n",
	"qreg q[1];\ninclude \"lexbad.inc\";\nh q[0];\n",
	"qreg q[1];\ninclude \"parsebad.inc\";\n",
	"qreg q[1];\ninclude \"bothbad.inc\";\n",
	"qreg q[1];\ninclude \"lexlate.inc\";\nh q[0];\n",
	"qreg q[1];\ninclude \"parsebad.inc\";\nh q[0]; #\n",
	"qreg q[1];\ninclude \"lexbad.inc\";\nh q[0]; #\n",
	"qreg q[1];\nh q[0] x q[0];\n#\n",
	"include \"missing.inc\";\nqreg q[1];\n",
	"include \"self.inc\";\nqreg q[1];\n",
	"include \"lib.inc\"\nqreg q[1];\n",
	"include lib;\n",
	"include \"lib.inc\";",
	"qreg q[2];\ninclude \"lib.inc\";\ng2 q[0], q[1]; /* open",
	"include \"\xff.inc\";\nqreg q[1];\ngx q[0];\n",
	"include \"ü.inc\";\nqreg q[1];\n",
}

// FuzzParseMatchesReference compares the streaming parser with the
// reference on arbitrary sources, resolving includes against
// includeFiles. Under plain `go test` it runs the FuzzParse seeds and
// includeSeeds.
func FuzzParseMatchesReference(f *testing.F) {
	for _, src := range parseSeeds {
		f.Add(src)
	}
	for _, src := range includeSeeds {
		f.Add(src)
	}
	f.Fuzz(checkSameParse)
}
