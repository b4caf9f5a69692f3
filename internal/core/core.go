// Package core is the high-level façade of the reproduction: it wires
// the front ends (OpenQASM / .real), the decision-diagram engine, the
// simulation and verification services, and the visualization styles
// into the workflows the paper's tool exposes — load an algorithm,
// step through its simulation while watching the DD, or check two
// circuits against each other while staying close to the identity.
//
// Everything here is a thin, documented composition of the substrate
// packages; programmatic users who need more control use those
// packages directly:
//
//	cnum       canonical complex numbers (tolerance unique table)
//	dd         vector/matrix decision diagrams and their operations
//	linalg     dense baseline (state vectors, system matrices)
//	qc         circuit IR, gate algebra, native-set compilation
//	qasm       OpenQASM 2.0 front end
//	realfmt    RevLib .real front end
//	sim        DD-based simulation with stepping and dialogs
//	verify     DD-based equivalence checking (incl. alternating scheme)
//	vis        classic/colored/modern SVG and DOT rendering
//	web        the installation-free web tool
package core

import (
	"fmt"
	"os"
	"strings"

	"quantumdd/internal/dd"
	"quantumdd/internal/qasm"
	"quantumdd/internal/qc"
	"quantumdd/internal/realfmt"
	"quantumdd/internal/sim"
	"quantumdd/internal/verify"
	"quantumdd/internal/vis"
	"quantumdd/internal/web"
)

// LoadCircuit parses an algorithm description. Format is "qasm",
// "real", or "" for auto-detection — the same contract as the tool's
// drag-and-drop algorithm box.
func LoadCircuit(code, format string) (*qc.Circuit, error) {
	return web.ParseCircuit(code, format)
}

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
	return nil, fmt.Errorf("core: unknown format %q (want qasm or real)", format)
}

// Simulate runs the circuit to completion with the given seed and
// returns the classical measurement results together with the final
// state diagram and its package.
func Simulate(circ *qc.Circuit, seed int64) ([]int, dd.VEdge, *dd.Pkg, error) {
	return sim.Run(circ, seed)
}

// NewStepper returns an interactive simulator positioned before the
// first operation (the tool's ⏮ state).
func NewStepper(circ *qc.Circuit, seed int64) *sim.Simulator {
	return sim.New(circ, sim.WithSeed(seed))
}

// Functionality builds the system matrix U = U_{m-1}···U_0 of a
// unitary circuit as a decision diagram (Ex. 14).
func Functionality(circ *qc.Circuit) (dd.MEdge, *dd.Pkg, error) {
	p := dd.New(circ.NQubits)
	u, err := verify.Functionality(p, circ)
	if err != nil {
		return dd.MZero(), nil, err
	}
	return u, p, nil
}

// CheckEquivalence decides whether two circuits realize the same
// functionality, using the advanced alternating scheme with the
// proportional strategy by default (Ex. 12).
func CheckEquivalence(a, b *qc.Circuit) (*verify.Result, error) {
	return verify.Check(a, b, verify.Proportional)
}

// RenderState renders a state diagram as SVG in the given style.
func RenderState(e dd.VEdge, style vis.Style) string {
	return vis.FromVector(e).SVG(style)
}

// RenderOperation renders a matrix diagram as SVG in the given style.
func RenderOperation(e dd.MEdge, style vis.Style) string {
	return vis.FromMatrix(e).SVG(style)
}

// RenderStateDOT renders a state diagram in Graphviz syntax.
func RenderStateDOT(e dd.VEdge, style vis.Style) string {
	return vis.FromVector(e).DOT(style)
}

// RenderOperationDOT renders a matrix diagram in Graphviz syntax.
func RenderOperationDOT(e dd.MEdge, style vis.Style) string {
	return vis.FromMatrix(e).DOT(style)
}

// StyleByName maps the tool's style names onto vis.Style. Allowed
// names: classic, colored, modern.
func StyleByName(name string) (vis.Style, error) {
	switch name {
	case "", "classic":
		return vis.Style{Mode: vis.Classic}, nil
	case "colored":
		return vis.Style{Mode: vis.Colored}, nil
	case "modern":
		return vis.Style{Mode: vis.Modern}, nil
	default:
		return vis.Style{}, fmt.Errorf("core: unknown style %q (want classic, colored or modern)", name)
	}
}

// NewWebTool creates the installation-free web tool served over HTTP,
// using the default operational limits (web.DefaultConfig).
func NewWebTool(seed int64) *web.Server { return web.NewServer(seed) }

// NewWebToolConfig creates the web tool with explicit operational
// limits — admission caps, node budgets, session TTL/LRU eviction, and
// request deadlines. Call Close on the returned server to stop its
// background session reaper.
func NewWebToolConfig(cfg web.Config) *web.Server { return web.NewServerWithConfig(cfg) }

// SimulationFrames runs a whole simulation and renders one SVG frame
// per executed operation — the data behind the tool's slide show, and
// a convenient export for presentations.
func SimulationFrames(circ *qc.Circuit, seed int64, style vis.Style) ([]string, error) {
	s := sim.New(circ, sim.WithSeed(seed))
	frames := []string{vis.FrameSVG(vis.FromVector(s.State()), style, "initial state")}
	for !s.AtEnd() {
		ev, err := s.StepForward()
		if err != nil {
			return frames, err
		}
		caption := ""
		if ev.Op != nil {
			caption = fmt.Sprintf("op %d: %s", ev.OpIndex, ev.Op.String())
		}
		frames = append(frames, vis.FrameSVG(vis.FromVector(s.State()), style, caption))
	}
	return frames, nil
}
