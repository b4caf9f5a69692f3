package dd

import "testing"

// TestOversizedWalkerNotPooled: a walker whose visited set outgrew
// maxPooledWalk is dropped on release, so no later small walk pays for
// clearing its map.
func TestOversizedWalkerNotPooled(t *testing.T) {
	big := &vWalker{seen: make(map[*VNode]struct{})}
	for range maxPooledWalk + 1 {
		big.seen[new(VNode)] = struct{}{}
	}
	big.release()
	if w := vWalkerPool.Get().(*vWalker); w == big {
		t.Fatal("oversized vector walker returned to the pool")
	} else if len(w.seen) != 0 || len(w.stack) != 0 {
		t.Fatal("pooled vector walker not cleared")
	}

	bigM := &mWalker{seen: make(map[*MNode]struct{})}
	for range maxPooledWalk + 1 {
		bigM.seen[new(MNode)] = struct{}{}
	}
	bigM.release()
	if w := mWalkerPool.Get().(*mWalker); w == bigM {
		t.Fatal("oversized matrix walker returned to the pool")
	}
}
