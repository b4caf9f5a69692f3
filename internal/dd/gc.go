package dd

// Reference counting and garbage collection.
//
// The unique tables keep every node ever created alive (they hold the
// only strong references), so long-running simulations must reclaim
// nodes that no longer appear in any live diagram. Clients mark the
// diagrams they keep (IncRef) and unmark them when done (DecRef);
// GarbageCollect then sweeps all unreferenced nodes from the unique
// tables and drops the operation caches, which may point at swept
// nodes. This mirrors the scheme of the JKQ DD package (ICCAD 2019).

import "time"

// IncRefV marks the diagram rooted at e as live.
func (p *Pkg) IncRefV(e VEdge) {
	p.checkOpen()
	incRefV(e.N)
}

func incRefV(n *VNode) {
	if n == vTerminal {
		return
	}
	notSwept(n.V)
	n.ref++
	if n.ref == 1 {
		incRefV(n.E[0].N)
		incRefV(n.E[1].N)
	}
}

// DecRefV releases a mark set by IncRefV.
func (p *Pkg) DecRefV(e VEdge) {
	p.checkOpen()
	decRefV(e.N)
}

func decRefV(n *VNode) {
	if n == vTerminal {
		return
	}
	if n.ref == 0 {
		panic("dd: DecRefV on unreferenced node")
	}
	n.ref--
	if n.ref == 0 {
		decRefV(n.E[0].N)
		decRefV(n.E[1].N)
	}
}

// IncRefM marks the matrix diagram rooted at e as live.
func (p *Pkg) IncRefM(e MEdge) {
	p.checkOpen()
	incRefM(e.N)
}

func incRefM(n *MNode) {
	if n == mTerminal {
		return
	}
	notSwept(n.V)
	n.ref++
	if n.ref == 1 {
		for _, c := range n.E {
			incRefM(c.N)
		}
	}
}

// DecRefM releases a mark set by IncRefM.
func (p *Pkg) DecRefM(e MEdge) {
	p.checkOpen()
	decRefM(e.N)
}

func decRefM(n *MNode) {
	if n == mTerminal {
		return
	}
	if n.ref == 0 {
		panic("dd: DecRefM on unreferenced node")
	}
	n.ref--
	if n.ref == 0 {
		for _, c := range n.E {
			decRefM(c.N)
		}
	}
}

// GarbageCollect removes all nodes with reference count zero from the
// unique tables, releasing them into the arenas' free lists for
// reuse, and invalidates the operation caches (which may point at
// swept nodes) by bumping the package generation — an O(1) step that
// reallocates nothing. It returns the number of vector and matrix
// nodes freed.
func (p *Pkg) GarbageCollect() (vecFreed, matFreed int) {
	p.checkOpen()
	start := time.Now()
	for i := range p.vUnique {
		vecFreed += p.vUnique[i].sweep(&p.vMem)
	}
	for i := range p.mUnique {
		matFreed += p.mUnique[i].sweep(&p.mMem)
	}
	p.invalidateComputeTables()
	p.live -= vecFreed + matFreed
	p.stats.GCRuns++
	p.stats.NodesFreed += uint64(vecFreed + matFreed)
	pause := time.Since(start)
	p.stats.GCPauseNS += uint64(pause)
	if p.observer != nil {
		p.observer.ObserveOp(OpGC, pause)
		p.PublishStats()
	}
	return vecFreed, matFreed
}

// GCFloor is the live-node count below which a GCWatermark never
// collects, so small workloads skip the sweep altogether.
const GCFloor = 1024

// GCWatermark is the one collection schedule of the package's long
// loops: the simulator (after each operation), a trajectory replica
// (between trajectories), a functionality build (after each gate), the
// alternating miter of the checker and the verification tab (after
// each gate) and a random-stimulus check (between stimuli). It
// collects once the live nodes have doubled since the last
// collection, and never below GCFloor. A collection sweeps every
// unique table and invalidates every compute table, so collecting
// after each unit of work would pay that sweep every time and keep the
// tables cold; a limit that grows with what survives keeps the tables
// sized to the live diagrams at a logarithmic number of sweeps. The
// MQT DD package (arXiv 2108.07027) collects on the same kind of
// growing limit.
//
// The zero value first collects at GCFloor. The caller keeps the
// watermark, so a loop that starts again on the same package starts
// from the floor.
type GCWatermark struct{ next int }

// MaybeCollect collects p when its live nodes have reached
// max(GCFloor, twice the live count the last collection through w
// left), and reports whether it did. The check is O(1) against the
// incrementally maintained live counter, so it can sit inside
// per-operation loops. The detector build (poison_on.go) collects at
// every check.
func (w *GCWatermark) MaybeCollect(p *Pkg) bool {
	if p.live < max(GCFloor, w.next) && !poisonSwept {
		return false
	}
	w.Collect(p)
	return true
}

// Collect collects p now and moves the watermark to twice the live
// nodes that survive.
func (w *GCWatermark) Collect(p *Pkg) {
	p.GarbageCollect()
	w.next = 2 * p.live
}
