package dd

import "fmt"

// Variable-order studies. Decision diagrams are canonical only "with
// respect to a given variable order and normalization scheme"
// (Sec. III-C), and the order can change the diagram size
// exponentially. Physically, representing the same state under the
// order that places qubit q at level perm[q] yields a diagram
// isomorphic to the one obtained by routing qubit values to their new
// positions with a SWAP network and keeping the natural order — so
// reordered sizes and a sifting heuristic can be computed with the
// existing gate machinery.

// ReorderedState returns the diagram representing the same state under
// the variable order that places qubit q at level perm[q] (the labels
// of the result are the new levels). perm must be a permutation.
func (p *Pkg) ReorderedState(e VEdge, perm []int) (VEdge, error) {
	if err := p.checkPerm(perm); err != nil {
		return VZero(), err
	}
	// Route values: value of qubit q must end up on wire perm[q].
	cur := make([]int, p.nqubits) // cur[wire] = original qubit living there
	pos := make([]int, p.nqubits) // pos[qubit] = wire
	for i := range cur {
		cur[i] = i
		pos[i] = i
	}
	out := e
	for q := 0; q < p.nqubits; q++ {
		want := perm[q]
		have := pos[q]
		if have == want {
			continue
		}
		out = p.ApplySwap(out, have, want)
		other := cur[want]
		cur[want], cur[have] = q, other
		pos[q], pos[other] = want, have
	}
	return out, nil
}

// ReorderedSize reports the node count of the state under the given
// variable order without keeping the reordered diagram.
func (p *Pkg) ReorderedSize(e VEdge, perm []int) (int, error) {
	r, err := p.ReorderedState(e, perm)
	if err != nil {
		return 0, err
	}
	return SizeV(r), nil
}

// SiftOrder runs a greedy sifting heuristic: each qubit in turn is
// tried at every level (keeping the relative order of the others) and
// pinned at the position minimizing the diagram size. It returns the
// best order found (perm[q] = level of qubit q) and its node count.
// The search is O(n²) reorder evaluations.
func (p *Pkg) SiftOrder(e VEdge) ([]int, int, error) {
	n := p.nqubits
	// order[level] = qubit occupying that level, best-so-far.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	best, err := p.ReorderedSize(e, levelsOf(order))
	if err != nil {
		return nil, 0, err
	}
	for q := 0; q < n; q++ {
		bestPos := -1
		for target := 0; target < n; target++ {
			cand := moveQubit(order, q, target)
			size, err := p.ReorderedSize(e, levelsOf(cand))
			if err != nil {
				return nil, 0, err
			}
			if size < best {
				best = size
				bestPos = target
			}
		}
		if bestPos >= 0 {
			order = moveQubit(order, q, bestPos)
		}
	}
	return levelsOf(order), best, nil
}

// levelsOf converts an order list (order[level] = qubit) into the perm
// convention (perm[qubit] = level).
func levelsOf(order []int) []int {
	perm := make([]int, len(order))
	for level, q := range order {
		perm[q] = level
	}
	return perm
}

// moveQubit returns a copy of order with qubit q moved to the given
// level, shifting the others.
func moveQubit(order []int, q, target int) []int {
	out := make([]int, 0, len(order))
	for _, v := range order {
		if v != q {
			out = append(out, v)
		}
	}
	out = append(out, 0)
	copy(out[target+1:], out[target:])
	out[target] = q
	return out
}

func (p *Pkg) checkPerm(perm []int) error {
	if len(perm) != p.nqubits {
		return fmt.Errorf("dd: permutation has %d entries, want %d", len(perm), p.nqubits)
	}
	seen := make([]bool, p.nqubits)
	for _, v := range perm {
		if v < 0 || v >= p.nqubits || seen[v] {
			return fmt.Errorf("dd: %v is not a permutation of 0..%d", perm, p.nqubits-1)
		}
		seen[v] = true
	}
	return nil
}
