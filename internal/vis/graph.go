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
type NodeID int

const noNode NodeID = -1

// Node is a renderable decision-diagram node.
type Node struct {
	ID       NodeID
	Level    int    // qubit level, -1 for the terminal
	Label    string // "q2", or "1" for the terminal
	Terminal bool
	X, Y     float64 // set by layout (centre position)
	// Probs holds |w|² per successor port for vector nodes; used by
	// the modern style's amplitude bars.
	Probs []float64
}

// Edge is a renderable successor edge.
type Edge struct {
	From   NodeID
	To     NodeID // noNode for a retracted zero stub
	Port   int    // successor index at From (0..1 vector, 0..3 matrix)
	NPorts int
	Weight complex128
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
	g := &Graph{Kind: KindVector, RootWeight: e.W, Root: noNode}
	if e.IsTerminal() {
		// A constant, e.g. the zero vector, renders as a lone terminal
		// under its root weight.
		id := g.addTerminal()
		g.Root = id
		return g
	}
	ids := map[*dd.VNode]NodeID{}
	var term NodeID = noNode
	var probs []float64 // two per non-terminal node, in node order
	var walk func(n *dd.VNode) NodeID
	walk = func(n *dd.VNode) NodeID {
		if id, ok := ids[n]; ok {
			return id
		}
		id := NodeID(len(g.Nodes))
		g.Nodes = append(g.Nodes, Node{ID: id, Level: n.V, Label: levelLabel(n.V)})
		probs = append(probs, prob(n.E[0].W), prob(n.E[1].W))
		ids[n] = id
		if n.V+1 > g.Levels {
			g.Levels = n.V + 1
		}
		for port, c := range n.E {
			switch {
			case c.W == 0:
				g.Edges = append(g.Edges, Edge{From: id, To: noNode, Port: port, NPorts: 2, Zero: true})
			case c.IsTerminal():
				if term == noNode {
					term = g.addTerminal()
				}
				g.Edges = append(g.Edges, Edge{From: id, To: term, Port: port, NPorts: 2, Weight: c.W})
			default:
				child := walk(c.N)
				g.Edges = append(g.Edges, Edge{From: id, To: child, Port: port, NPorts: 2, Weight: c.W})
			}
		}
		return id
	}
	g.Root = walk(e.N)
	// Slice Probs out of the shared array only now: appends above may
	// have moved it.
	for i := range g.Nodes {
		if n := &g.Nodes[i]; !n.Terminal {
			n.Probs, probs = probs[:2:2], probs[2:]
		}
	}
	return g
}

// FromMatrix extracts the graph of an operation diagram.
func FromMatrix(e dd.MEdge) *Graph {
	g := &Graph{Kind: KindMatrix, RootWeight: e.W, Root: noNode}
	if e.IsTerminal() {
		id := g.addTerminal()
		g.Root = id
		return g
	}
	ids := map[*dd.MNode]NodeID{}
	var term NodeID = noNode
	var walk func(n *dd.MNode) NodeID
	walk = func(n *dd.MNode) NodeID {
		if id, ok := ids[n]; ok {
			return id
		}
		id := NodeID(len(g.Nodes))
		g.Nodes = append(g.Nodes, Node{ID: id, Level: n.V, Label: levelLabel(n.V)})
		ids[n] = id
		if n.V+1 > g.Levels {
			g.Levels = n.V + 1
		}
		for port, c := range n.E {
			switch {
			case c.W == 0:
				g.Edges = append(g.Edges, Edge{From: id, To: noNode, Port: port, NPorts: 4, Zero: true})
			case c.IsTerminal():
				if term == noNode {
					term = g.addTerminal()
				}
				g.Edges = append(g.Edges, Edge{From: id, To: term, Port: port, NPorts: 4, Weight: c.W})
			default:
				child := walk(c.N)
				g.Edges = append(g.Edges, Edge{From: id, To: child, Port: port, NPorts: 4, Weight: c.W})
			}
		}
		return id
	}
	g.Root = walk(e.N)
	return g
}

func (g *Graph) addTerminal() NodeID {
	id := NodeID(len(g.Nodes))
	g.Nodes = append(g.Nodes, Node{ID: id, Level: -1, Label: "1", Terminal: true})
	return id
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
