// Package quantumdd is a from-scratch Go reproduction of
// "Visualizing Decision Diagrams for Quantum Computing (Special
// Session Summary)" (Wille, Burgholzer, Artner; DATE 2021): the full
// software stack behind the paper's installation-free web tool.
//
// The implementation lives in the internal packages (see DESIGN.md for
// the system inventory):
//
//	internal/cnum        tolerance-based canonical complex numbers
//	internal/dd          quantum decision diagrams (vectors, matrices)
//	internal/linalg      dense linear-algebra baseline
//	internal/qc          circuit IR, gate algebra, compilation
//	internal/qasm        OpenQASM 2.0 front end
//	internal/realfmt     RevLib .real front end
//	internal/sim         DD-based simulation with stepping and dialogs
//	internal/verify      DD-based equivalence checking
//	internal/vis         classic/colored/modern SVG and DOT rendering
//	internal/web         the web tool (JSON API + embedded page)
//	internal/algorithms  example algorithm generators
//	internal/bench       experiment harness (paper figure regeneration)
//	internal/cli         the command-line tools behind cmd/ and the file loader
//
// Executables: cmd/ddvis (web tool), cmd/ddsim (simulator),
// cmd/ddverify (equivalence checker), cmd/dddraw (diagram renderer),
// cmd/ddbench (experiment harness). Runnable examples live under
// examples/.
package quantumdd
