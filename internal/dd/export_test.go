package dd

// IdentUpTo exposes identUpTo to the external tests, which build
// operands spanning fewer levels than the package (KronM's inputs).
func (p *Pkg) IdentUpTo(v Var) MEdge { return p.identUpTo(v) }
