//go:build ddpoison

package dd

// The use-after-collection detector, a test build: go test -tags
// ddpoison. A collection poisons every node it sweeps and recycles a
// fresh node in its place, so the free lists and their counters behave
// as in the normal build while no swept slot is ever reused. A
// reference, walk or diagram operation that meets a poisoned node
// panics: a caller that kept an unreferenced root across a collection
// fails where it reads the root instead of silently reading whatever
// diagram reused the slot. Every GCWatermark.MaybeCollect collects, so
// each collection point of a loop is exercised at every check. The
// build costs memory in proportion to everything ever swept.

// sweptVar labels a poisoned node; real levels are at least 0 and the
// terminal's is -1.
const sweptVar Var = -2

const poisonSwept = true

func poisonV(n *VNode) *VNode {
	n.V = sweptVar
	return new(VNode)
}

func poisonM(n *MNode) *MNode {
	n.V = sweptVar
	return new(MNode)
}

// notSwept panics on a poisoned node's level.
func notSwept(v Var) {
	if v == sweptVar {
		panic("dd: use of a diagram swept by garbage collection; reference a root (IncRefV/IncRefM) to keep it across a collection")
	}
}
