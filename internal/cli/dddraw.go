package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"quantumdd/internal/dd"
	"quantumdd/internal/qc"
	"quantumdd/internal/sim"
	"quantumdd/internal/verify"
	"quantumdd/internal/vis"
)

// RunDddraw is the dddraw tool: render a circuit's final-state or
// functionality diagram to SVG/DOT/ASCII, or emit the color wheel.
func RunDddraw(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dddraw", flag.ContinueOnError)
	fs.SetOutput(stderr)
	what := fs.String("what", "state", "state | functionality")
	styleName := fs.String("style", "classic", "classic | colored | modern")
	out := fs.String("out", "", "output file (default: stdout); .dot selects DOT, .txt ASCII")
	formatFlag := fs.String("format", "", "input format: qasm, real, or auto")
	seed := fs.Int64("seed", 1, "measurement sampling seed (state mode)")
	wheel := fs.Bool("colorwheel", false, "emit the HLS phase color wheel instead of a diagram")
	shape := fs.Bool("shape", false, "print an ASCII structural profile (per-level occupancy, sharing, identity padding) instead of rendering")
	animate := fs.Bool("animate", false, "emit a SMIL-animated SVG cycling one frame per simulation step")
	frameDur := fs.Float64("framedur", 1.0, "seconds per animation frame")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	emit := func(content string) int {
		if *out == "" {
			fmt.Fprint(stdout, content)
			return 0
		}
		if err := os.WriteFile(*out, []byte(content), 0o644); err != nil {
			fmt.Fprintln(stderr, "dddraw:", err)
			return 1
		}
		fmt.Fprintf(stderr, "wrote %s (%d bytes)\n", *out, len(content))
		return 0
	}
	if *wheel {
		return emit(vis.ColorWheelSVG(200))
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: dddraw [flags] <circuit.qasm|circuit.real>")
		fs.PrintDefaults()
		return 2
	}
	style, err := styleByName(*styleName)
	if err != nil {
		fmt.Fprintln(stderr, "dddraw:", err)
		return 2
	}
	circ, err := LoadCircuitFile(fs.Arg(0), *formatFlag)
	if err != nil {
		fmt.Fprintln(stderr, "dddraw:", err)
		return 1
	}
	if *animate {
		frames, err := simulationFrames(circ, *seed, style)
		if err != nil {
			fmt.Fprintln(stderr, "dddraw:", err)
			return 1
		}
		anim, err := vis.AnimationSVG(frames, *frameDur)
		if err != nil {
			fmt.Fprintln(stderr, "dddraw:", err)
			return 1
		}
		return emit(anim)
	}
	var g *vis.Graph
	switch *what {
	case "state":
		s := sim.New(circ, sim.WithSeed(*seed))
		if _, err := s.RunToEnd(); err != nil {
			fmt.Fprintln(stderr, "dddraw:", err)
			return 1
		}
		if *shape {
			prof := s.Pkg().ShapeV(s.State())
			return emit(shapeReport(&prof))
		}
		fmt.Fprintf(stderr, "final state: %d nodes\n", dd.SizeV(s.State()))
		g = vis.FromVector(s.State())
	case "functionality":
		p := dd.New(circ.NQubits)
		u, err := verify.Functionality(p, circ)
		if err != nil {
			fmt.Fprintln(stderr, "dddraw:", err)
			return 1
		}
		if *shape {
			prof := p.ShapeM(u)
			return emit(shapeReport(&prof))
		}
		fmt.Fprintf(stderr, "functionality: %d nodes\n", dd.SizeM(u))
		g = vis.FromMatrix(u)
	default:
		fmt.Fprintf(stderr, "dddraw: unknown -what %q (want state or functionality)\n", *what)
		return 2
	}
	switch {
	case strings.HasSuffix(*out, ".dot"):
		return emit(g.DOT(style))
	case strings.HasSuffix(*out, ".txt"):
		return emit(g.Text())
	default:
		return emit(g.SVG(style))
	}
}

// styleByName maps the tool's style names onto vis.Style. Allowed
// names: classic, colored, modern.
func styleByName(name string) (vis.Style, error) {
	switch name {
	case "", "classic":
		return vis.Style{Mode: vis.Classic}, nil
	case "colored":
		return vis.Style{Mode: vis.Colored}, nil
	case "modern":
		return vis.Style{Mode: vis.Modern}, nil
	default:
		return vis.Style{}, fmt.Errorf("unknown style %q (want classic, colored or modern)", name)
	}
}

// simulationFrames runs a whole simulation and renders one SVG frame
// per executed operation — the data behind the tool's slide show.
func simulationFrames(circ *qc.Circuit, seed int64, style vis.Style) ([]string, error) {
	s := sim.New(circ, sim.WithSeed(seed))
	frames := []string{vis.FrameSVG(vis.FromVector(s.State()), style, "initial state")}
	for !s.AtEnd() {
		ev, err := s.StepForward()
		if err != nil {
			return frames, err
		}
		caption := fmt.Sprintf("op %d: %s", ev.OpIndex, ev.Op.String())
		frames = append(frames, vis.FrameSVG(vis.FromVector(s.State()), style, caption))
	}
	return frames, nil
}
