package dd

// Resource governance: a configurable cap on the number of live nodes
// in the unique tables.
//
// Decision diagrams can grow exponentially on adversarial inputs (the
// companion tool paper stresses this as the fundamental limit of the
// data structure), and in a server setting an unbounded simulation
// OOM-kills the whole process rather than just the offending request.
// A Pkg can therefore be given a node budget via SetMaxNodes. The
// budget is enforced inside the *Checked operation variants: when a
// node allocation would push the unique tables past the cap, the
// operation aborts, the partially built intermediates are garbage
// collected, and a *ResourceError (matching ErrResourceExhausted via
// errors.Is) is returned. Diagrams protected with IncRef survive an
// aborted operation untouched, so callers can keep rendering the last
// good state.
//
// The unchecked operations ignore the budget entirely, which keeps the
// existing single-shot tools and tests unaffected; servers route all
// potentially explosive work through the checked variants.

import (
	"errors"
	"fmt"
)

// ErrResourceExhausted is the sentinel matched by errors.Is when an
// operation aborts because the node budget was exceeded.
var ErrResourceExhausted = errors.New("dd: node budget exhausted")

// ResourceError reports a budget violation with the observed table
// size and the configured cap. It unwraps to ErrResourceExhausted.
type ResourceError struct {
	Nodes int // live unique-table nodes at the time of the abort
	Limit int // the configured MaxNodes cap
}

func (e *ResourceError) Error() string {
	return fmt.Sprintf("dd: diagram too large: %d live nodes exceed the budget of %d", e.Nodes, e.Limit)
}

func (e *ResourceError) Unwrap() error { return ErrResourceExhausted }

// SetMaxNodes installs a cap on the total number of live unique-table
// nodes (vector plus matrix). Zero or negative disables the budget.
// The cap is enforced only by the *Checked operations.
func (p *Pkg) SetMaxNodes(n int) { p.maxNodes = n }

// MaxNodes reports the configured node budget (0 = unlimited).
func (p *Pkg) MaxNodes() int { return p.maxNodes }

// LiveNodes reports the current number of unique-table nodes,
// including garbage not yet collected.
func (p *Pkg) LiveNodes() int { return p.live }

// exceeded builds the typed error for the current table size.
func (p *Pkg) exceeded() *ResourceError {
	return &ResourceError{Nodes: p.live, Limit: p.maxNodes}
}

// checked runs op with the budget armed: node allocations beyond
// MaxNodes abort the operation via a panic that is converted back into
// a *ResourceError here. Before starting, garbage is collected if the
// tables are already at the cap, and the operation is refused if they
// still are; otherwise one served from the compute tables would
// succeed over budget. After an abort, the partially built
// (unreferenced) result nodes are swept so the package stays usable;
// referenced diagrams are untouched. When that sweep leaves fewer live
// nodes than the operation started with, stale intermediates of
// earlier operations were eating its budget, so op runs once more on
// the collected tables. A genuine blow-up frees nothing that predates
// it and is not retried.
func (p *Pkg) checked(op func()) error {
	if p.maxNodes > 0 && p.live >= p.maxNodes {
		p.GarbageCollect()
		if p.live >= p.maxNodes {
			return p.exceeded()
		}
	}
	start := p.live
	err := p.armed(op)
	if err != nil && p.live < start {
		err = p.armed(op)
	}
	return err
}

// armed runs op once with the budget armed, collecting after an abort.
func (p *Pkg) armed(op func()) (err error) {
	defer func() {
		p.budgetArmed = false
		if r := recover(); r != nil {
			re, ok := r.(*ResourceError)
			if !ok {
				panic(r)
			}
			p.GarbageCollect()
			err = re
		}
	}()
	p.budgetArmed = true
	op()
	return nil
}

// The *Checked wrappers ref-protect their operands for the duration
// of the call: checked() may garbage-collect before the operation and
// after an abort, then run the operation again on the same operands,
// and with the recycling allocator (mem.go) an unreferenced operand
// would not merely fall out of the unique tables — its nodes would be
// zeroed and reused. The temporary references keep operands intact
// through any internal collection; after the wrapper returns they are
// subject to normal GC rules again.

// MultMMChecked is MultMM under the node budget.
func (p *Pkg) MultMMChecked(a, b MEdge) (MEdge, error) {
	p.IncRefM(a)
	p.IncRefM(b)
	defer func() { p.DecRefM(a); p.DecRefM(b) }()
	var res MEdge
	if err := p.checked(func() { res = p.MultMM(a, b) }); err != nil {
		return MZero(), err
	}
	return res, nil
}
