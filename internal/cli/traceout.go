package cli

// -trace-out support shared by the CLI tools: the whole run is
// captured in one flight recorder under a single root span and
// written as Chrome trace-event JSON on exit — the same format (and
// the same recorder) the web server exports per session, so a batch
// run and an interactive session are diffed in the same viewer.

import (
	"context"
	"fmt"
	"io"
	"os"

	"quantumdd/internal/obs/trace"
)

// cliTraceCapacity sizes the CLI flight recorder well above the web
// default: a batch run has exactly one "session" and no concurrent
// ones, so retaining ~65k spans (≈16 MiB) is the better trade than
// silently truncating a long simulation's timeline.
const cliTraceCapacity = 1 << 16

// traceOutput owns a run's recorder and root span; observeRun feeds
// the recorder every engine operation. Nil methods are no-ops so call
// sites need no "-trace-out given?" branches.
type traceOutput struct {
	path string
	rec  *trace.Recorder
	ctx  context.Context
	root *trace.Span
}

// newTraceOutput starts recording: it opens the root span that engine
// operations nest under.
func newTraceOutput(path, name string) *traceOutput {
	rec := trace.NewRecorder(name, cliTraceCapacity)
	ctx, root := trace.StartSpan(trace.With(context.Background(), rec), name)
	return &traceOutput{path: path, rec: rec, ctx: ctx, root: root}
}

// context returns the run context carrying the recorder and root
// span; context.Background() when tracing is off.
func (t *traceOutput) context() context.Context {
	if t == nil {
		return context.Background()
	}
	return t.ctx
}

// finish closes the root span and writes the trace file. Failures
// are reported, not fatal: the run's real output already happened.
func (t *traceOutput) finish(stderr io.Writer) {
	if t == nil {
		return
	}
	t.root.End()
	f, err := os.Create(t.path)
	if err != nil {
		fmt.Fprintln(stderr, "trace-out:", err)
		return
	}
	err = trace.WriteChromeTrace(f, trace.SessionFromRecorder(t.rec, 1))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(stderr, "trace-out:", err)
		return
	}
	if d := t.rec.Dropped(); d > 0 {
		fmt.Fprintf(stderr, "trace-out: flight recorder dropped %d oldest spans (capacity %d)\n", d, cliTraceCapacity)
	}
}
