package cli

import (
	"fmt"
	"os"
	"strings"

	"quantumdd/internal/qasm"
	"quantumdd/internal/qc"
	"quantumdd/internal/realfmt"
)

// LoadCircuitFile loads a circuit from a file, resolving OpenQASM
// includes relative to the file's directory. The format is derived
// from the extension (.real selects RevLib) unless forced.
func LoadCircuitFile(path, format string) (*qc.Circuit, error) {
	if format == "real" || (format == "" || format == "auto") && strings.HasSuffix(path, ".real") {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return realfmt.Parse(f)
	}
	if format == "" || format == "auto" || format == "qasm" {
		return qasm.ParseFile(path)
	}
	return nil, fmt.Errorf("unknown format %q (want qasm or real)", format)
}
