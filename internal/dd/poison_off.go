//go:build !ddpoison

package dd

// Outside the detector build (poison_on.go) a swept node itself goes
// back to its arena's free list, the checks compile to nothing and
// GCWatermark collects on its doubling rule.

const poisonSwept = false

func poisonV(n *VNode) *VNode { return n }

func poisonM(n *MNode) *MNode { return n }

func notSwept(Var) {}
