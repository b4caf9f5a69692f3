package dd

import (
	"math"
	"testing"
)

// TestCloseEndsPackage checks use after Close: every operation on a
// closed package panics instead of reading nodes whose memory another
// package may own by then, while the published snapshots that
// busy-session scrapes read keep answering.
func TestCloseEndsPackage(t *testing.T) {
	s := 1 / math.Sqrt2
	h := GateMatrix{complex(s, 0), complex(s, 0), complex(s, 0), complex(-s, 0)}
	p := New(3)
	v := p.ApplyGate(p.ZeroState(), h, 2)
	p.IncRefV(v)
	m := p.ApplyGateML(p.Ident(), h, 1)
	p.PublishStats()
	p.PublishShapeV(v)
	published, _ := p.LastStats()
	p.Close()
	p.Close() // a second Close is a no-op

	for name, op := range map[string]func(){
		"ZeroState":          func() { p.ZeroState() },
		"ApplyGate":          func() { p.ApplyGate(v, h, 0) },
		"ApplyGateML":        func() { p.ApplyGateML(m, h, 0) },
		"AddV":               func() { p.AddV(v, v) },
		"IncRefV":            func() { p.IncRefV(v) },
		"DecRefV":            func() { p.DecRefV(v) },
		"IncRefM":            func() { p.IncRefM(m) },
		"GarbageCollect":     func() { p.GarbageCollect() },
		"Stats":              func() { p.Stats() },
		"PublishStats":       func() { p.PublishStats() },
		"Vector":             func() { p.Vector(v) },
		"Probabilities":      func() { p.Probabilities(v) },
		"ProbOne":            func() { p.ProbOne(v, 0) },
		"Matrix":             func() { p.Matrix(m) },
		"AppendVectorBinary": func() { p.AppendVectorBinary(nil, v) },
		"AppendMatrixBinary": func() { p.AppendMatrixBinary(nil, m) },
		"ShapeV":             func() { p.ShapeV(v) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a closed package did not panic", name)
				}
			}()
			op()
		}()
	}
	if got, ok := p.LastStats(); !ok || got != published {
		t.Errorf("LastStats after Close = %+v, %v; want the published snapshot", got, ok)
	}
	if sp := p.LastShape(); sp == nil || sp.Kind != "vector" {
		t.Errorf("LastShape after Close = %+v, want the published vector profile", sp)
	}
}
