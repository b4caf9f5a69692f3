package dd

// IdentUpTo exposes identUpTo to the external tests, which build
// operands spanning fewer levels than the package (KronM's inputs).
func (p *Pkg) IdentUpTo(v Var) MEdge { return p.identUpTo(v) }

// PoisonSwept reports the use-after-collection detector build to the
// external tests (poison_on.go).
const PoisonSwept = poisonSwept
