// Package vis renders quantum decision diagrams in the styles of the
// paper's tool (Sec. IV-A): a "classic" research-paper look with
// explicit edge-weight labels, dashed non-unit edges and retracted
// 0-stubs; a "colored" look where each edge weight's magnitude is
// shown as line thickness and its complex phase as an HLS color-wheel
// hue (Fig. 7(b)); and a "modern" look with amplitude bars. Output
// formats are self-contained SVG and Graphviz DOT.
package vis

import (
	"strconv"

	"quantumdd/internal/dd"
)

// Kind distinguishes vector (state) diagrams from matrix (operation)
// diagrams.
type Kind int

const (
	KindVector Kind = iota
	KindMatrix
)

// NodeID indexes a node within a Graph. The pseudo root-arrow source
// has no NodeID; the terminal node has one.
type NodeID int32

const noNode NodeID = -1

// Node is a renderable decision-diagram node.
type Node struct {
	ID       NodeID
	Terminal bool
	Level    int     // qubit level, -1 for the terminal
	Label    string  // "q2", or "1" for the terminal
	X, Y     float64 // set by layout (centre position)
	// Probs holds |w|² per successor port for vector nodes; used by
	// the modern style's amplitude bars.
	Probs []float64
}

// Edge is a renderable successor edge. A frame allocates one per port
// of every node, so the small fields are packed behind the weight.
type Edge struct {
	Weight complex128
	From   NodeID
	To     NodeID // noNode for a retracted zero stub
	Port   uint8  // successor index at From (0..1 vector, 0..3 matrix)
	NPorts uint8
	Zero   bool
}

// Graph is the extracted, layout-ready form of a decision diagram.
type Graph struct {
	Kind       Kind
	Nodes      []Node
	Edges      []Edge
	RootWeight complex128
	Root       NodeID
	Levels     int // number of qubit levels spanned (root level + 1)
}

// NodeCount reports the number of non-terminal nodes, matching the
// paper's node-count convention (Ex. 6).
func (g *Graph) NodeCount() int {
	n := 0
	for _, nd := range g.Nodes {
		if !nd.Terminal {
			n++
		}
	}
	return n
}

// FromVector extracts the graph of a state diagram.
func FromVector(e dd.VEdge) *Graph {
	f := dd.FlattenV(e)
	g := FromFlatV(f)
	f.Release()
	return g
}

// FromMatrix extracts the graph of an operation diagram.
func FromMatrix(e dd.MEdge) *Graph {
	f := dd.FlattenM(e)
	g := FromFlatM(f)
	f.Release()
	return g
}

// FromFlatV builds the graph of a state diagram from its walk listing:
// node i of the listing becomes node i of the graph and the edges keep
// the listing's order. A constant, e.g. the zero vector, renders as a
// lone terminal under its root weight.
func FromFlatV(f *dd.FlatV) *Graph {
	g := newGraph(KindVector, f.Root.W, len(f.Nodes), len(f.Edges))
	probs := make([]float64, len(f.Edges)) // two per non-terminal node
	for i, n := range f.Nodes {
		if int32(i) == f.Term {
			g.Nodes[i] = terminalNode(i)
			continue
		}
		g.Nodes[i] = Node{ID: NodeID(i), Level: n.V, Label: levelLabel(n.V), Probs: probs[:2:2]}
		probs[0], probs[1], probs = prob(n.E[0].W), prob(n.E[1].W), probs[2:]
		g.Levels = max(g.Levels, n.V+1)
	}
	for j, k := range f.Edges {
		from, port := k>>1, k&1
		g.Edges[j] = edge(from, f.Kids[k], port, 2, f.Nodes[from].E[port].W)
	}
	return g
}

// FromFlatM builds the graph of an operation diagram from its walk
// listing, as FromFlatV does for states.
func FromFlatM(f *dd.FlatM) *Graph {
	g := newGraph(KindMatrix, f.Root.W, len(f.Nodes), len(f.Edges))
	for i, n := range f.Nodes {
		if int32(i) == f.Term {
			g.Nodes[i] = terminalNode(i)
			continue
		}
		g.Nodes[i] = Node{ID: NodeID(i), Level: n.V, Label: levelLabel(n.V)}
		g.Levels = max(g.Levels, n.V+1)
	}
	for j, k := range f.Edges {
		from, port := k>>2, k&3
		g.Edges[j] = edge(from, f.Kids[k], port, 4, f.Nodes[from].E[port].W)
	}
	return g
}

func newGraph(kind Kind, rootWeight complex128, nodes, edges int) *Graph {
	g := &Graph{Kind: kind, RootWeight: rootWeight, Root: 0, Nodes: make([]Node, nodes)}
	if edges > 0 { // a lone terminal has none
		g.Edges = make([]Edge, edges)
	}
	return g
}

func terminalNode(i int) Node {
	return Node{ID: NodeID(i), Level: -1, Label: "1", Terminal: true}
}

// edge is the graph edge behind port of node from, whose child has
// listing index to; a zero-weight edge (to < 0) is a retracted stub.
func edge(from, to, port int32, nports uint8, w complex128) Edge {
	if to < 0 {
		return Edge{From: NodeID(from), To: noNode, Port: uint8(port), NPorts: nports, Zero: true}
	}
	return Edge{From: NodeID(from), To: NodeID(to), Port: uint8(port), NPorts: nports, Weight: w}
}

// levelLabels holds the node labels of the first 64 qubit levels.
var levelLabels = func() (l [64]string) {
	for i := range l {
		l[i] = "q" + strconv.Itoa(i)
	}
	return l
}()

func levelLabel(v int) string {
	if v < len(levelLabels) {
		return levelLabels[v]
	}
	return "q" + strconv.Itoa(v)
}

func prob(w complex128) float64 {
	return real(w)*real(w) + imag(w)*imag(w)
}
