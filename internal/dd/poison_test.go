//go:build ddpoison

package dd

import (
	"strings"
	"testing"

	"quantumdd/internal/qc"
)

// TestPoisonCatchesStaleRoot keeps one referenced and one unreferenced
// root across a collection. The referenced one reads as before; every
// reference, walk and operation on the swept one panics, while the
// free list still hands out a node for each one swept.
func TestPoisonCatchesStaleRoot(t *testing.T) {
	p := New(3)
	kept := p.BasisState(5)
	p.IncRefV(kept)
	stale := p.BasisState(2)
	m := p.Ident()
	vf, mf := p.GarbageCollect()
	if st := p.Stats(); vf == 0 || mf == 0 || st.FreeNodesV != vf || st.FreeNodesM != mf {
		t.Fatalf("swept %d+%d nodes, free lists %d+%d", vf, mf, st.FreeNodesV, st.FreeNodesM)
	}
	if SizeV(kept) != 3 || Amplitude(kept, 5) != 1 {
		t.Fatal("the referenced root changed in the collection")
	}
	x := qc.Op{Kind: qc.KindGate, Gate: qc.X, Targets: []int{0}}
	for name, use := range map[string]func(){
		"IncRefV":   func() { p.IncRefV(stale) },
		"IncRefM":   func() { p.IncRefM(m) },
		"SizeV":     func() { SizeV(stale) },
		"SizeM":     func() { SizeM(m) },
		"FlattenV":  func() { FlattenV(stale).Release() },
		"Vector":    func() { p.Vector(stale) },
		"Matrix":    func() { p.Matrix(m) },
		"ApplyOp":   func() { p.ApplyOp(stale, &x) },
		"ApplyOpML": func() { p.ApplyOpML(m, &x) },
		"ApplyGate": func() { p.ApplyGate(stale, pauliX, 0) },
		"MultMV":    func() { p.MultMV(p.MakeGateDD(pauliX, 0), stale) },
		"MultMM":    func() { p.MultMM(m, m) },
		"AddV":      func() { p.AddV(kept, stale) },
		"AddM":      func() { p.AddM(m, m) },
	} {
		func() {
			defer func() {
				if r, _ := recover().(string); !strings.Contains(r, "swept by garbage collection") {
					t.Errorf("%s on a swept root: recovered %v, want the detector's panic", name, r)
				}
			}()
			use()
		}()
	}
}
