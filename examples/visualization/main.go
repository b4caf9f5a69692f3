// Visualization gallery (Sec. IV-A, Fig. 7): renders the Bell state
// and the QFT functionality in all three styles plus Graphviz DOT and
// the HLS phase color wheel, writing everything into ./dd-gallery/.
//
// Run with: go run ./examples/visualization
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/dd"
	"quantumdd/internal/sim"
	"quantumdd/internal/verify"
	"quantumdd/internal/vis"
)

func main() {
	outDir := "dd-gallery"
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	write := func(name, content string) {
		path := filepath.Join(outDir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %-32s %7d bytes\n", path, len(content))
	}

	// The Bell state in every style (Fig. 7's options).
	_, bell, _, err := sim.Run(algorithms.Bell(), 1)
	if err != nil {
		log.Fatal(err)
	}
	styles := []struct {
		name  string
		style vis.Style
	}{
		{"classic", vis.Style{Mode: vis.Classic}},
		{"colored", vis.Style{Mode: vis.Colored}},
		{"modern", vis.Style{Mode: vis.Modern}},
	}
	for _, s := range styles {
		write("bell_"+s.name+".svg", vis.FromVector(bell).SVG(s.style))
	}
	write("bell.dot", vis.FromVector(bell).DOT(vis.Style{Mode: vis.Classic}))

	// The QFT functionality matrix (Fig. 6) — colored, as in the paper.
	qft := algorithms.QFT(3)
	u, err := verify.Functionality(dd.New(qft.NQubits), qft)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("QFT3 functionality: %d nodes\n", dd.SizeM(u))
	g := vis.FromMatrix(u)
	write("qft3_colored.svg", g.SVG(vis.Style{Mode: vis.Colored}))
	write("qft3_classic.svg", g.SVG(vis.Style{Mode: vis.Classic}))
	write("qft3.dot", g.DOT(vis.Style{Mode: vis.Colored}))

	// The HLS color wheel legend (Fig. 7(b)).
	write("colorwheel.svg", vis.ColorWheelSVG(200))

	// An animation: one frame per simulation step of the Bell circuit
	// (the slide-show feature of the tool).
	modern := vis.Style{Mode: vis.Modern}
	s := sim.New(algorithms.BellMeasured(), sim.WithSeed(1))
	write("bell_frame_00.svg", vis.FrameSVG(vis.FromVector(s.State()), modern, "initial state"))
	for i := 1; !s.AtEnd(); i++ {
		ev, err := s.StepForward()
		if err != nil {
			log.Fatal(err)
		}
		caption := fmt.Sprintf("op %d: %s", ev.OpIndex, ev.Op.String())
		write(fmt.Sprintf("bell_frame_%02d.svg", i), vis.FrameSVG(vis.FromVector(s.State()), modern, caption))
	}
}
