package vis

import (
	"cmp"
	"slices"
)

// Layout parameters (SVG user units).
const (
	nodeRadius   = 18.0
	levelGap     = 72.0
	siblingGap   = 64.0
	marginX      = 40.0
	marginY      = 48.0
	terminalSize = 22.0
)

// Layout assigns node coordinates: one row per level (root level on
// top, terminal at the bottom), nodes within a row ordered by a DFS
// pre-order pass followed by barycenter sweeps to reduce crossings.
// It returns the overall canvas size.
func (g *Graph) Layout() (width, height float64) {
	if len(g.Nodes) == 0 {
		return 2 * marginX, 2 * marginY
	}
	// Row index per node: row 0 is the top (highest level).
	top := g.Levels - 1
	rowOf := func(n *Node) int {
		if n.Terminal {
			return g.Levels // bottom row
		}
		return top - n.Level
	}
	n, nrows := len(g.Nodes), g.Levels+1
	m := 0
	for _, e := range g.Edges {
		if e.To != noNode {
			m++
		}
	}
	// One scratch array holds every list below, node ids index it.
	// Children and parents are in CSR form: the neighbours of node i
	// are kids[kidAt[i]:kidAt[i+1]] and pars[parAt[i]:parAt[i+1]],
	// each in edge order. Row r is order[rowAt[r]:rowAt[r+1]].
	scratch := make([]NodeID, 4*n+2*m+2*nrows+3)
	carve := func(k int) []NodeID {
		s := scratch[:k:k]
		scratch = scratch[k:]
		return s
	}
	kidAt, parAt, kids, pars := carve(n+1), carve(n+1), carve(m), carve(m)
	rowAt, rowLen, order, pos := carve(nrows+1), carve(nrows), carve(n), carve(n)
	// Count the neighbours, sum the counts to the end of each range,
	// then place the edges last to first: each range fills backwards
	// in edge order, and its offset ends at its start.
	for _, e := range g.Edges {
		if e.To != noNode {
			kidAt[e.From]++
			parAt[e.To]++
		}
	}
	for i := 1; i <= n; i++ {
		kidAt[i] += kidAt[i-1]
		parAt[i] += parAt[i-1]
	}
	for j := len(g.Edges) - 1; j >= 0; j-- {
		if e := &g.Edges[j]; e.To != noNode {
			kidAt[e.From]--
			kids[kidAt[e.From]] = e.To
			parAt[e.To]--
			pars[parAt[e.To]] = e.From
		}
	}
	for i := range g.Nodes {
		rowAt[rowOf(&g.Nodes[i])+1]++
	}
	for r := 0; r < nrows; r++ {
		rowAt[r+1] += rowAt[r]
	}
	row := func(r int) []NodeID { return order[rowAt[r]:rowAt[r+1]] }
	// DFS pre-order from the root for an initial ordering; pos marks
	// the visited nodes until the positions are set.
	var dfs func(id NodeID)
	dfs = func(id NodeID) {
		if pos[id] != 0 {
			return
		}
		pos[id] = 1
		r := rowOf(&g.Nodes[id])
		order[rowAt[r]+rowLen[r]] = id
		rowLen[r]++
		for _, c := range kids[kidAt[id]:kidAt[id+1]] {
			dfs(c)
		}
	}
	if g.Root != noNode {
		dfs(g.Root)
	}
	for id := range g.Nodes {
		dfs(NodeID(id))
	}
	// Barycenter sweeps: order each row by the mean position of
	// parents (downward pass), then by children (upward pass).
	maxW := 0
	for r := 0; r < nrows; r++ {
		for i, id := range row(r) {
			pos[id] = NodeID(i)
		}
		maxW = max(maxW, int(rowLen[r]))
	}
	bary := func(row, refs, at []NodeID) {
		// A key reads only positions of other rows, or the node's
		// own from before the sort, so the sort can recompute it.
		key := func(id NodeID) float64 {
			rs := refs[at[id]:at[id+1]]
			if len(rs) == 0 {
				return float64(pos[id])
			}
			sum := 0
			for _, r := range rs {
				sum += int(pos[r])
			}
			return float64(sum) / float64(len(rs))
		}
		slices.SortStableFunc(row, func(a, b NodeID) int { return cmp.Compare(key(a), key(b)) })
		// Only this row's positions change.
		for i, id := range row {
			pos[id] = NodeID(i)
		}
	}
	for sweep := 0; sweep < 2; sweep++ {
		for r := 1; r < nrows; r++ {
			bary(row(r), pars, parAt)
		}
		for r := nrows - 2; r >= 0; r-- {
			bary(row(r), kids, kidAt)
		}
	}
	// Coordinates: centre every row horizontally.
	width = marginX*2 + float64(maxW-1)*siblingGap
	if width < 2*marginX+siblingGap {
		width = 2*marginX + siblingGap
	}
	for r := 0; r < nrows; r++ {
		rowWidth := float64(rowLen[r]-1) * siblingGap
		x0 := (width - rowWidth) / 2
		for i, id := range row(r) {
			g.Nodes[id].X = x0 + float64(i)*siblingGap
			g.Nodes[id].Y = marginY + float64(r+1)*levelGap
		}
	}
	height = marginY + float64(nrows+1)*levelGap
	return width, height
}
