package algorithms

import (
	"fmt"
	"math"

	"quantumdd/internal/dd"
	"quantumdd/internal/qc"
)

// QAOA for MaxCut — a small variational application built on the DD
// simulator: the ansatz circuits are ordinary qc circuits, and the
// cost is read off the decision diagram through Pauli expectations.
// This exercises the "simulation" design task end to end the way the
// paper's intro motivates (algorithm designers probing behaviour).

// Graph is an undirected graph given by its edge list.
type Graph struct {
	Nodes int
	Edges [][2]int
}

// Validate checks node indices.
func (g Graph) Validate() error {
	if g.Nodes <= 0 {
		return fmt.Errorf("algorithms: graph needs nodes")
	}
	for _, e := range g.Edges {
		if e[0] < 0 || e[0] >= g.Nodes || e[1] < 0 || e[1] >= g.Nodes || e[0] == e[1] {
			return fmt.Errorf("algorithms: invalid edge %v", e)
		}
	}
	return nil
}

// Ring returns the n-cycle graph (MaxCut optimum n for even n).
func Ring(n int) Graph {
	g := Graph{Nodes: n}
	for i := 0; i < n; i++ {
		g.Edges = append(g.Edges, [2]int{i, (i + 1) % n})
	}
	return g
}

// QAOAMaxCut builds the depth-p QAOA ansatz for MaxCut on g:
// |+⟩^n, then alternating cost layers e^{-iγ Z_u Z_v} per edge
// (decomposed as CX·RZ(2γ)·CX) and mixer layers RX(2β).
func QAOAMaxCut(g Graph, gammas, betas []float64) (*qc.Circuit, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if len(gammas) != len(betas) {
		return nil, fmt.Errorf("algorithms: %d gammas but %d betas", len(gammas), len(betas))
	}
	c := qc.New(g.Nodes, 0)
	c.Name = fmt.Sprintf("qaoa_maxcut_%d_p%d", g.Nodes, len(gammas))
	for q := 0; q < g.Nodes; q++ {
		c.H(q)
	}
	for layer := range gammas {
		for _, e := range g.Edges {
			// e^{-iγ Z⊗Z} up to global phase.
			c.CX(e[0], e[1])
			c.Gate(qc.RZ, []float64{2 * gammas[layer]}, e[1])
			c.CX(e[0], e[1])
		}
		for q := 0; q < g.Nodes; q++ {
			c.Gate(qc.RX, []float64{2 * betas[layer]}, q)
		}
	}
	return c, nil
}

// CutExpectation evaluates the expected cut value of the ansatz state:
// sum over edges of (1 − ⟨Z_u Z_v⟩)/2, read from the decision diagram.
func CutExpectation(p *dd.Pkg, state dd.VEdge, g Graph) (float64, error) {
	total := 0.0
	for _, e := range g.Edges {
		pauli := make([]byte, p.Qubits())
		for i := range pauli {
			pauli[i] = 'I'
		}
		// Big-endian string: position i addresses qubit n-1-i.
		pauli[p.Qubits()-1-e[0]] = 'Z'
		pauli[p.Qubits()-1-e[1]] = 'Z'
		zz, err := p.ExpectationPauli(state, string(pauli))
		if err != nil {
			return 0, err
		}
		total += (1 - zz) / 2
	}
	return total, nil
}

// QAOAResult reports one evaluated parameter point.
type QAOAResult struct {
	Gamma, Beta float64
	ExpectedCut float64
	DDNodes     int
}

// QAOASweep evaluates a depth-1 QAOA grid and returns the results
// sorted as scanned plus the best point — a miniature variational
// loop running entirely on decision diagrams.
func QAOASweep(g Graph, gammaSteps, betaSteps int) ([]QAOAResult, QAOAResult, error) {
	if err := g.Validate(); err != nil {
		return nil, QAOAResult{}, err
	}
	var results []QAOAResult
	best := QAOAResult{ExpectedCut: -1}
	for i := 0; i < gammaSteps; i++ {
		gamma := math.Pi * float64(i+1) / float64(gammaSteps+1)
		for j := 0; j < betaSteps; j++ {
			beta := math.Pi / 2 * float64(j+1) / float64(betaSteps+1)
			circ, err := QAOAMaxCut(g, []float64{gamma}, []float64{beta})
			if err != nil {
				return nil, QAOAResult{}, err
			}
			p, state, err := runUnitary(circ)
			if err != nil {
				return nil, QAOAResult{}, err
			}
			cut, err := CutExpectation(p, state, g)
			if err != nil {
				return nil, QAOAResult{}, err
			}
			r := QAOAResult{Gamma: gamma, Beta: beta, ExpectedCut: cut, DDNodes: dd.SizeV(state)}
			results = append(results, r)
			if cut > best.ExpectedCut {
				best = r
			}
		}
	}
	return results, best, nil
}

// runUnitary evolves |0…0⟩ through a purely unitary circuit on the DD
// engine (the sweep needs no measurement machinery, which keeps this
// package free of a dependency on the simulator).
func runUnitary(c *qc.Circuit) (*dd.Pkg, dd.VEdge, error) {
	p := dd.New(c.NQubits)
	state := p.ZeroState()
	for i := range c.Ops {
		op := &c.Ops[i]
		switch op.Kind {
		case qc.KindBarrier:
			continue
		case qc.KindGate:
			if op.Cond != nil {
				return nil, dd.VZero(), fmt.Errorf("algorithms: conditional gates unsupported in runUnitary")
			}
		default:
			return nil, dd.VZero(), fmt.Errorf("algorithms: non-unitary op %q in runUnitary", op.String())
		}
		var err error
		if state, err = p.ApplyOp(state, op); err != nil {
			return nil, dd.VZero(), err
		}
	}
	return p, state, nil
}
