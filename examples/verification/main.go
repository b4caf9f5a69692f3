// Verification walk-through of Ex. 10–12 and Fig. 9: check that the
// abstract three-qubit QFT (Fig. 5(a)) and its compiled version
// (Fig. 5(b)) are equivalent, first by constructing and comparing the
// canonical system matrices, then with the advanced alternating scheme
// that stays close to the identity (max 9 nodes instead of 21).
//
// Run with: go run ./examples/verification
package main

import (
	"fmt"
	"log"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/dd"
	"quantumdd/internal/verify"
)

func main() {
	qft := algorithms.QFT(3)
	compiled := algorithms.QFTCompiled(3)
	fmt.Printf("G  (Fig. 5(a)): %d gates\nG' (Fig. 5(b)): %d gates\n\n",
		qft.NumGates(), compiled.NumGates())

	// Ex. 11: both circuits build the identical canonical DD.
	p := dd.New(3)
	u1, err := verify.Functionality(p, qft)
	if err != nil {
		log.Fatal(err)
	}
	p.IncRefM(u1) // the second build may collect garbage
	u2, err := verify.Functionality(p, compiled)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("functionality DDs identical: %v (%d nodes, Fig. 6)\n\n", u1 == u2, dd.SizeM(u1))

	// Ex. 12: the alternating scheme with different strategies.
	fmt.Printf("%-14s %12s %12s %8s\n", "strategy", "peak nodes", "final nodes", "equiv")
	for _, s := range []verify.Strategy{
		verify.Construction, verify.Sequential, verify.OneToOne,
		verify.Proportional, verify.Lookahead,
	} {
		res, err := verify.Check(qft, compiled, s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %12d %12d %8v\n", res.Strategy, res.PeakNodes, res.FinalNodes, res.Equivalent)
	}

	// The Fig. 9 view: the proportional walk's node-count trace.
	res, err := verify.Check(qft, compiled, verify.Proportional)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nproportional walk (one gate of G, then G' up to the barrier):")
	for i, r := range res.Trace {
		bar := ""
		for j := 0; j < r.Nodes; j++ {
			bar += "█"
		}
		fmt.Printf("  step %2d %-3s %-34s %2d %s\n", i, r.Side, r.Gate, r.Nodes, bar)
	}
	fmt.Printf("\npeak %d nodes — \"as opposed to 21 nodes for building the entire system matrix\" (Ex. 12)\n", res.PeakNodes)

	// A negative case: flip one rotation angle and watch it fail.
	broken := algorithms.QFT(3)
	for i := range broken.Ops {
		if broken.Ops[i].Params != nil {
			broken.Ops[i].Params[0] = -broken.Ops[i].Params[0]
			break
		}
	}
	bad, err := verify.Check(broken, compiled, verify.Proportional)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwith one flipped angle: equivalent=%v (final diagram %d nodes, not the identity)\n",
		bad.Equivalent, bad.FinalNodes)
}
