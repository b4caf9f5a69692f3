package cli

import (
	"flag"
	"fmt"
	"io"
	"os"

	"quantumdd/internal/dd"
	"quantumdd/internal/realfmt"
	"quantumdd/internal/sim"
	"quantumdd/internal/snapshot"
	"quantumdd/internal/verify"
	"quantumdd/internal/web"
)

// RunDdconvert is the ddconvert tool: translate circuits between the
// tool's two input formats (OpenQASM 2.0 and RevLib .real), optionally
// re-verifying that the translation preserved the functionality. It
// also speaks the durable session snapshot format of internal/snapshot:
// -write-snapshot simulates the circuit and exports the final state as
// a checksummed snapshot, -inspect-snapshot validates one and prints a
// summary (extracting the embedded circuit with -out).
func RunDdconvert(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ddconvert", flag.ContinueOnError)
	fs.SetOutput(stderr)
	to := fs.String("to", "qasm", "target format: qasm | real")
	check := fs.Bool("check", false, "verify the output is equivalent to the input (DD-based)")
	out := fs.String("out", "", "output file (default: stdout)")
	format := fs.String("format", "", "input format: qasm, real, or auto")
	seed := fs.Int64("seed", 1, "measurement seed for -write-snapshot")
	writeSnap := fs.String("write-snapshot", "", "simulate the circuit and write the final state as a checksummed session snapshot to this file")
	inspectSnap := fs.Bool("inspect-snapshot", false, "treat the argument as a session snapshot: validate it and print a summary; with -out, extract the embedded circuit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: ddconvert [-to qasm|real] [-check] [-write-snapshot file] [-inspect-snapshot] <circuit|snapshot>")
		fs.PrintDefaults()
		return 2
	}
	if *inspectSnap {
		return ddconvertInspectSnapshot(fs.Arg(0), *out, stdout, stderr)
	}
	if *writeSnap != "" {
		return ddconvertWriteSnapshot(fs.Arg(0), *format, *seed, *writeSnap, stderr)
	}
	circ, err := LoadCircuitFile(fs.Arg(0), *format)
	if err != nil {
		fmt.Fprintln(stderr, "ddconvert:", err)
		return 1
	}
	var rendered string
	switch *to {
	case "qasm":
		rendered = circ.QASM()
	case "real":
		rendered, err = realfmt.WriteString(circ)
		if err != nil {
			fmt.Fprintln(stderr, "ddconvert:", err)
			return 1
		}
	default:
		fmt.Fprintf(stderr, "ddconvert: unknown target format %q\n", *to)
		return 2
	}
	if *check {
		back, err := web.ParseCircuit(rendered, *to)
		if err != nil {
			fmt.Fprintf(stderr, "ddconvert: output does not re-parse: %v\n", err)
			return 1
		}
		if circ.HasNonUnitary() {
			fmt.Fprintln(stderr, "ddconvert: -check skipped (circuit contains non-unitary operations)")
		} else {
			res, err := verify.Check(circ, back, verify.Proportional)
			if err != nil {
				fmt.Fprintln(stderr, "ddconvert:", err)
				return 1
			}
			if !res.Equivalent {
				fmt.Fprintln(stderr, "ddconvert: translation changed the functionality!")
				return 1
			}
			fmt.Fprintln(stderr, "check: translation verified equivalent")
		}
	}
	if *out == "" {
		fmt.Fprint(stdout, rendered)
		return 0
	}
	if err := os.WriteFile(*out, []byte(rendered), 0o644); err != nil {
		fmt.Fprintln(stderr, "ddconvert:", err)
		return 1
	}
	fmt.Fprintf(stderr, "wrote %s (%d bytes)\n", *out, len(rendered))
	return 0
}

// ddconvertWriteSnapshot simulates the circuit to the end and writes
// the final state as a checksummed session snapshot — the same format
// the web tool spills evicted sessions in, so the file can seed a
// ddvis spill directory or travel between machines.
func ddconvertWriteSnapshot(path, format string, seed int64, outPath string, stderr io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "ddconvert:", err)
		return 1
	}
	src := string(data)
	// Parse from the source text (not the file path): the snapshot must
	// embed a self-contained circuit that restores anywhere.
	circ, err := web.ParseCircuit(src, format)
	if err != nil {
		fmt.Fprintf(stderr, "ddconvert: circuit is not self-contained, cannot snapshot: %v\n", err)
		return 1
	}
	s := sim.New(circ, sim.WithSeed(seed))
	if _, err := s.RunToEnd(); err != nil {
		fmt.Fprintln(stderr, "ddconvert: simulate:", err)
		return 1
	}
	blob := snapshot.EncodeSim(&snapshot.Sim{
		Source:    src,
		Format:    format,
		Seed:      seed,
		Pos:       s.Pos(),
		Classical: s.Classical(),
		PeakNodes: s.PeakNodes(),
		State:     s.Pkg().AppendVectorBinary(nil, s.State()),
	})
	if err := os.WriteFile(outPath, blob, 0o644); err != nil {
		fmt.Fprintln(stderr, "ddconvert:", err)
		return 1
	}
	fmt.Fprintf(stderr, "wrote snapshot %s (%d bytes, %d qubits, pos %d, %d nodes)\n",
		outPath, len(blob), circ.NQubits, s.Pos(), dd.SizeV(s.State()))
	return 0
}

// ddconvertInspectSnapshot validates a snapshot file — envelope
// checksum, payload format, and a full decode of the embedded decision
// diagram — and prints a summary. With outPath set, the embedded
// circuit source is extracted (the left circuit for verification
// snapshots). Exit status 1 means the snapshot is damaged or invalid.
func ddconvertInspectSnapshot(path, outPath string, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "ddconvert:", err)
		return 1
	}
	simSnap, verSnap, err := snapshot.Decode(data)
	if err != nil {
		fmt.Fprintln(stderr, "ddconvert: snapshot rejected:", err)
		return 1
	}
	var source string
	switch {
	case simSnap != nil:
		circ, err := web.ParseCircuit(simSnap.Source, simSnap.Format)
		if err != nil {
			fmt.Fprintln(stderr, "ddconvert: embedded circuit does not parse:", err)
			return 1
		}
		p := dd.New(circ.NQubits)
		state, err := p.DecodeVectorBinary(simSnap.State)
		if err != nil {
			fmt.Fprintln(stderr, "ddconvert: embedded state does not decode:", err)
			return 1
		}
		fmt.Fprintf(stdout, "kind:      simulation\nformat:    %s\nqubits:    %d\nops:       %d\nposition:  %d\nclassical: %v\nnodes:     %d\nbytes:     %d\n",
			orAuto(simSnap.Format), circ.NQubits, len(circ.Ops), simSnap.Pos, simSnap.Classical, dd.SizeV(state), len(data))
		source = simSnap.Source
	case verSnap != nil:
		left, err := web.ParseCircuit(verSnap.LeftSource, verSnap.LeftFormat)
		if err != nil {
			fmt.Fprintln(stderr, "ddconvert: embedded left circuit does not parse:", err)
			return 1
		}
		if _, err := web.ParseCircuit(verSnap.RightSource, verSnap.RightFormat); err != nil {
			fmt.Fprintln(stderr, "ddconvert: embedded right circuit does not parse:", err)
			return 1
		}
		p := dd.New(left.NQubits)
		x, err := p.DecodeMatrixBinary(verSnap.X)
		if err != nil {
			fmt.Fprintln(stderr, "ddconvert: embedded diagram does not decode:", err)
			return 1
		}
		fmt.Fprintf(stdout, "kind:      verification\nformat:    %s\nqubits:    %d\npositions: left %d, right %d\nnodes:     %d\nbytes:     %d\n",
			orAuto(verSnap.LeftFormat), left.NQubits, verSnap.LI, verSnap.RI, dd.SizeM(x), len(data))
		source = verSnap.LeftSource
	}
	if outPath != "" {
		if err := os.WriteFile(outPath, []byte(source), 0o644); err != nil {
			fmt.Fprintln(stderr, "ddconvert:", err)
			return 1
		}
		fmt.Fprintf(stderr, "extracted circuit to %s (%d bytes)\n", outPath, len(source))
	}
	return 0
}

// orAuto renders an empty (auto-detected) format label readably.
func orAuto(format string) string {
	if format == "" {
		return "auto"
	}
	return format
}
