package dd

// Serialization of decision diagrams to a compact, human-readable text
// format, enabling diagram exchange between sessions and tools (the
// web tool's export, regression baselines in tests).
//
// Format (line-oriented, topologically sorted children-first):
//
//	ddvec v1 <nqubits>
//	n <id> <level> <w0> <child0> <w1> <child1>
//	root <w> <id>
//
// Children are node ids, or T for the terminal. Weights are printed as
// "re,im" with full float64 round-trip precision. The matrix format
// ("ddmat") is analogous with four (weight, child) pairs.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

func formatWeight(w complex128) string {
	return strconv.FormatFloat(real(w), 'g', -1, 64) + "," + strconv.FormatFloat(imag(w), 'g', -1, 64)
}

func parseWeight(s string) (complex128, error) {
	parts := strings.SplitN(s, ",", 2)
	if len(parts) != 2 {
		return 0, fmt.Errorf("dd: malformed weight %q", s)
	}
	re, err := strconv.ParseFloat(parts[0], 64)
	if err != nil {
		return 0, fmt.Errorf("dd: malformed weight %q: %v", s, err)
	}
	im, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return 0, fmt.Errorf("dd: malformed weight %q: %v", s, err)
	}
	return complex(re, im), nil
}

// WriteVector serializes a state diagram.
func (p *Pkg) WriteVector(w io.Writer, e VEdge) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "ddvec v1 %d\n", p.nqubits)
	ids := map[*VNode]int{}
	next := 0
	var emit func(n *VNode) error
	emit = func(n *VNode) error {
		if n == vTerminal {
			return nil
		}
		if _, ok := ids[n]; ok {
			return nil
		}
		for _, c := range n.E {
			if err := emit(c.N); err != nil {
				return err
			}
		}
		ids[n] = next
		next++
		ref := func(c VEdge) string {
			if c.N == vTerminal {
				return "T"
			}
			return strconv.Itoa(ids[c.N])
		}
		_, err := fmt.Fprintf(bw, "n %d %d %s %s %s %s\n", ids[n], n.V,
			formatWeight(n.E[0].W), ref(n.E[0]),
			formatWeight(n.E[1].W), ref(n.E[1]))
		return err
	}
	if err := emit(e.N); err != nil {
		return err
	}
	rootRef := "T"
	if e.N != vTerminal {
		rootRef = strconv.Itoa(ids[e.N])
	}
	fmt.Fprintf(bw, "root %s %s\n", formatWeight(e.W), rootRef)
	return bw.Flush()
}

// ReadVector deserializes a state diagram into this package,
// re-canonicalizing every node (so diagrams merge with existing ones).
func (p *Pkg) ReadVector(r io.Reader) (VEdge, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	if !sc.Scan() {
		return VZero(), fmt.Errorf("dd: empty input")
	}
	var nq int
	if _, err := fmt.Sscanf(sc.Text(), "ddvec v1 %d", &nq); err != nil {
		return VZero(), fmt.Errorf("dd: bad header %q", sc.Text())
	}
	if nq != p.nqubits {
		return VZero(), fmt.Errorf("dd: diagram has %d qubits, package has %d", nq, p.nqubits)
	}
	nodes := map[int]VEdge{} // id -> weight-1 edge to the rebuilt node
	line := 1
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "n":
			if len(fields) != 7 {
				return VZero(), fmt.Errorf("dd: line %d: malformed node", line)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return VZero(), fmt.Errorf("dd: line %d: bad id", line)
			}
			level, err := strconv.Atoi(fields[2])
			if err != nil || level < 0 || level >= p.nqubits {
				return VZero(), fmt.Errorf("dd: line %d: bad level", line)
			}
			var kids [2]VEdge
			for i := 0; i < 2; i++ {
				w, err := parseWeight(fields[3+2*i])
				if err != nil {
					return VZero(), fmt.Errorf("dd: line %d: %v", line, err)
				}
				ref := fields[4+2*i]
				if ref == "T" {
					kids[i] = VEdge{W: w, N: vTerminal}
					continue
				}
				cid, err := strconv.Atoi(ref)
				if err != nil {
					return VZero(), fmt.Errorf("dd: line %d: bad child ref %q", line, ref)
				}
				child, ok := nodes[cid]
				if !ok {
					return VZero(), fmt.Errorf("dd: line %d: child %d not yet defined", line, cid)
				}
				kids[i] = VEdge{W: w * child.W, N: child.N}
			}
			rebuilt := p.makeVNode(level, kids)
			nodes[id] = rebuilt
		case "root":
			if len(fields) != 3 {
				return VZero(), fmt.Errorf("dd: line %d: malformed root", line)
			}
			w, err := parseWeight(fields[1])
			if err != nil {
				return VZero(), fmt.Errorf("dd: line %d: %v", line, err)
			}
			if fields[2] == "T" {
				return p.rootV(VEdge{W: w, N: vTerminal}), nil
			}
			id, err := strconv.Atoi(fields[2])
			if err != nil {
				return VZero(), fmt.Errorf("dd: line %d: bad root ref", line)
			}
			root, ok := nodes[id]
			if !ok {
				return VZero(), fmt.Errorf("dd: line %d: root node %d undefined", line, id)
			}
			return p.rootV(VEdge{W: w * root.W, N: root.N}), nil
		default:
			return VZero(), fmt.Errorf("dd: line %d: unknown record %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return VZero(), err
	}
	return VZero(), fmt.Errorf("dd: missing root record")
}

// WriteMatrix serializes an operation diagram.
func (p *Pkg) WriteMatrix(w io.Writer, e MEdge) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "ddmat v1 %d\n", p.nqubits)
	ids := map[*MNode]int{}
	next := 0
	var emit func(n *MNode) error
	emit = func(n *MNode) error {
		if n == mTerminal {
			return nil
		}
		if _, ok := ids[n]; ok {
			return nil
		}
		for _, c := range n.E {
			if err := emit(c.N); err != nil {
				return err
			}
		}
		ids[n] = next
		next++
		ref := func(c MEdge) string {
			if c.N == mTerminal {
				return "T"
			}
			return strconv.Itoa(ids[c.N])
		}
		_, err := fmt.Fprintf(bw, "n %d %d %s %s %s %s %s %s %s %s\n", ids[n], n.V,
			formatWeight(n.E[0].W), ref(n.E[0]),
			formatWeight(n.E[1].W), ref(n.E[1]),
			formatWeight(n.E[2].W), ref(n.E[2]),
			formatWeight(n.E[3].W), ref(n.E[3]))
		return err
	}
	if err := emit(e.N); err != nil {
		return err
	}
	rootRef := "T"
	if e.N != mTerminal {
		rootRef = strconv.Itoa(ids[e.N])
	}
	fmt.Fprintf(bw, "root %s %s\n", formatWeight(e.W), rootRef)
	return bw.Flush()
}

// ReadMatrix deserializes an operation diagram into this package.
func (p *Pkg) ReadMatrix(r io.Reader) (MEdge, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	if !sc.Scan() {
		return MZero(), fmt.Errorf("dd: empty input")
	}
	var nq int
	if _, err := fmt.Sscanf(sc.Text(), "ddmat v1 %d", &nq); err != nil {
		return MZero(), fmt.Errorf("dd: bad header %q", sc.Text())
	}
	if nq != p.nqubits {
		return MZero(), fmt.Errorf("dd: diagram has %d qubits, package has %d", nq, p.nqubits)
	}
	nodes := map[int]MEdge{}
	line := 1
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "n":
			if len(fields) != 11 {
				return MZero(), fmt.Errorf("dd: line %d: malformed node", line)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return MZero(), fmt.Errorf("dd: line %d: bad id", line)
			}
			level, err := strconv.Atoi(fields[2])
			if err != nil || level < 0 || level >= p.nqubits {
				return MZero(), fmt.Errorf("dd: line %d: bad level", line)
			}
			var kids [4]MEdge
			for i := 0; i < 4; i++ {
				w, err := parseWeight(fields[3+2*i])
				if err != nil {
					return MZero(), fmt.Errorf("dd: line %d: %v", line, err)
				}
				ref := fields[4+2*i]
				if ref == "T" {
					kids[i] = MEdge{W: w, N: mTerminal}
					continue
				}
				cid, err := strconv.Atoi(ref)
				if err != nil {
					return MZero(), fmt.Errorf("dd: line %d: bad child ref %q", line, ref)
				}
				child, ok := nodes[cid]
				if !ok {
					return MZero(), fmt.Errorf("dd: line %d: child %d not yet defined", line, cid)
				}
				kids[i] = MEdge{W: w * child.W, N: child.N}
			}
			nodes[id] = p.makeMNode(level, kids)
		case "root":
			if len(fields) != 3 {
				return MZero(), fmt.Errorf("dd: line %d: malformed root", line)
			}
			w, err := parseWeight(fields[1])
			if err != nil {
				return MZero(), fmt.Errorf("dd: line %d: %v", line, err)
			}
			if fields[2] == "T" {
				return p.rootM(MEdge{W: w, N: mTerminal}), nil
			}
			id, err := strconv.Atoi(fields[2])
			if err != nil {
				return MZero(), fmt.Errorf("dd: line %d: bad root ref", line)
			}
			root, ok := nodes[id]
			if !ok {
				return MZero(), fmt.Errorf("dd: line %d: root node %d undefined", line, id)
			}
			return p.rootM(MEdge{W: w * root.W, N: root.N}), nil
		default:
			return MZero(), fmt.Errorf("dd: line %d: unknown record %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return MZero(), err
	}
	return MZero(), fmt.Errorf("dd: missing root record")
}
