package qasm

// The external differential tests import packages that import qasm,
// so they reach the reference parser and the circuit digest through
// these.
var (
	RefParseWithIncludes = refParseWithIncludes
	CircuitDigest        = circuitDigest
	CheckOps             = checkOps
)
