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
	n := len(g.Nodes)
	// Children and parents in CSR form: the neighbours of node i are
	// kids[kidAt[i]:kidAt[i+1]] and pars[parAt[i]:parAt[i+1]], each in
	// edge order. Rows share one backing array the same way.
	nrows := g.Levels + 1
	offs := make([]int, 2*(n+1)+nrows+1)
	kidAt, parAt, rowAt := offs[:n+1], offs[n+1:2*(n+1)], offs[2*(n+1):]
	m := 0
	for _, e := range g.Edges {
		if e.To != noNode {
			kidAt[e.From+1]++
			parAt[e.To+1]++
			m++
		}
	}
	for i := range g.Nodes {
		kidAt[i+1] += kidAt[i]
		parAt[i+1] += parAt[i]
		rowAt[rowOf(&g.Nodes[i])+1]++
	}
	for r := 0; r < nrows; r++ {
		rowAt[r+1] += rowAt[r]
	}
	ids := make([]NodeID, 2*m+n)
	kids, pars, order := ids[:m], ids[m:2*m], ids[2*m:]
	fill := make([]int, 2*n)
	fillK, fillP := fill[:n], fill[n:]
	copy(fillK, kidAt[:n])
	copy(fillP, parAt[:n])
	for _, e := range g.Edges {
		if e.To != noNode {
			kids[fillK[e.From]] = e.To
			fillK[e.From]++
			pars[fillP[e.To]] = e.From
			fillP[e.To]++
		}
	}
	rows := make([][]NodeID, nrows)
	for r := range rows {
		rows[r] = order[rowAt[r]:rowAt[r]:rowAt[r+1]]
	}
	// DFS pre-order from the root for an initial ordering.
	visited := make([]bool, n)
	var dfs func(id NodeID)
	dfs = func(id NodeID) {
		if visited[id] {
			return
		}
		visited[id] = true
		r := rowOf(&g.Nodes[id])
		rows[r] = append(rows[r], id)
		for _, c := range kids[kidAt[id]:kidAt[id+1]] {
			dfs(c)
		}
	}
	if g.Root != noNode {
		dfs(g.Root)
	}
	for id := range g.Nodes {
		if !visited[id] {
			dfs(NodeID(id))
		}
	}
	// Barycenter sweeps: order each row by the mean position of
	// parents (downward pass), then by children (upward pass).
	pos := make([]float64, n)
	maxW := 0
	for _, row := range rows {
		for i, id := range row {
			pos[id] = float64(i)
		}
		maxW = max(maxW, len(row))
	}
	type keyed struct {
		id  NodeID
		key float64
	}
	buf := make([]keyed, maxW)
	bary := func(row []NodeID, refs []NodeID, at []int) {
		ks := buf[:len(row)]
		for i, id := range row {
			rs := refs[at[id]:at[id+1]]
			if len(rs) == 0 {
				ks[i] = keyed{id, pos[id]}
				continue
			}
			sum := 0.0
			for _, r := range rs {
				sum += pos[r]
			}
			ks[i] = keyed{id, sum / float64(len(rs))}
		}
		slices.SortStableFunc(ks, func(a, b keyed) int { return cmp.Compare(a.key, b.key) })
		// Only this row's positions change.
		for i := range ks {
			row[i] = ks[i].id
			pos[ks[i].id] = float64(i)
		}
	}
	for sweep := 0; sweep < 2; sweep++ {
		for r := 1; r < len(rows); r++ {
			bary(rows[r], pars, parAt)
		}
		for r := len(rows) - 2; r >= 0; r-- {
			bary(rows[r], kids, kidAt)
		}
	}
	// Coordinates: centre every row horizontally.
	width = marginX*2 + float64(maxW-1)*siblingGap
	if width < 2*marginX+siblingGap {
		width = 2*marginX + siblingGap
	}
	for r, row := range rows {
		rowWidth := float64(len(row)-1) * siblingGap
		x0 := (width - rowWidth) / 2
		for i, id := range row {
			g.Nodes[id].X = x0 + float64(i)*siblingGap
			g.Nodes[id].Y = marginY + float64(r+1)*levelGap
		}
	}
	height = marginY + float64(len(rows)+1)*levelGap
	return width, height
}
