package metrics

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/trace"
)

// Profile aggregates KSpanBegin/KSpanEnd events into a virtual-time
// profile: per-phase inclusive and exclusive time (a phase is a span's
// cat/name, summed over every process and stack position), and folded
// call stacks in the collapsed flamegraph text format — each line one
// unique span stack with the exclusive virtual nanoseconds spent
// there, ready for any flamegraph renderer that accepts collapsed
// stacks.
type Profile struct {
	open   map[int32][]profFrame
	root   profNode // its children are the outermost spans
	phases map[string]*phaseAgg
	folded map[string]*foldAgg
}

// spanName identifies a span by category and name.
type spanName struct{ cat, name string }

// profNode is one distinct span stack: the node of a span's stack is its
// parent's child under the span's name. A node resolves its folded path
// and aggregates once, on creation, so span events build no strings.
type profNode struct {
	path     string // folded stack including this span
	children map[spanName]*profNode
	phase    *phaseAgg
	fold     *foldAgg
}

type profFrame struct {
	node  *profNode
	start int64
	child int64 // inclusive ns of completed children
}

type phaseAgg struct {
	count int64
	incl  int64
	excl  int64
}

type foldAgg struct {
	count int64
	excl  int64
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{
		open:   map[int32][]profFrame{},
		phases: map[string]*phaseAgg{},
		folded: map[string]*foldAgg{},
	}
}

// Record aggregates one span event; other kinds are ignored.
func (p *Profile) Record(e trace.Event) {
	switch e.Kind {
	case trace.KSpanBegin:
		stack := p.open[e.Proc]
		parent := &p.root
		if len(stack) > 0 {
			parent = stack[len(stack)-1].node
		}
		p.open[e.Proc] = append(stack, profFrame{node: p.child(parent, e), start: e.Time})
	case trace.KSpanEnd:
		stack := p.open[e.Proc]
		if len(stack) == 0 {
			return
		}
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		p.open[e.Proc] = stack
		incl := e.Time - f.start
		excl := incl - f.child
		if excl < 0 {
			excl = 0
		}
		if len(stack) > 0 {
			stack[len(stack)-1].child += incl
		}
		ph := f.node.phase
		ph.count++
		ph.incl += incl
		ph.excl += excl
		fa := f.node.fold
		fa.count++
		fa.excl += excl
	}
}

// child returns the node of span e opened under parent, creating it on
// first use. Phases and folded lines are keyed by their strings, so two
// nodes that render to the same key share one aggregate.
func (p *Profile) child(parent *profNode, e trace.Event) *profNode {
	id := spanName{cat: e.Cat, name: e.Name}
	if n := parent.children[id]; n != nil {
		return n
	}
	key := e.Cat + "/" + e.Name
	path := key
	if parent != &p.root {
		path = parent.path + ";" + key
	}
	n := &profNode{path: path, phase: p.phases[key], fold: p.folded[path]}
	if n.phase == nil {
		n.phase = &phaseAgg{}
		p.phases[key] = n.phase
	}
	if n.fold == nil {
		n.fold = &foldAgg{}
		p.folded[path] = n.fold
	}
	if parent.children == nil {
		parent.children = map[spanName]*profNode{}
	}
	parent.children[id] = n
	return n
}

// EndRun discards spans left open at a run boundary (they never closed
// within their run, so they have no measurable duration).
func (p *Profile) EndRun() {
	for k, stack := range p.open {
		p.open[k] = stack[:0]
	}
}

// PhaseStat is one phase's aggregate: inclusive time counts the full
// span durations, exclusive time subtracts enclosed child spans.
type PhaseStat struct {
	Name        string `json:"name"`
	Count       int64  `json:"count"`
	InclusiveNS int64  `json:"incl_ns"`
	ExclusiveNS int64  `json:"excl_ns"`
}

// FoldedLine is one collapsed stack: semicolon-joined span keys from
// outermost to innermost, with the exclusive time spent exactly there.
type FoldedLine struct {
	Stack string `json:"stack"`
	Count int64  `json:"count"`
	NS    int64  `json:"ns"`
}

// ProfileExport is the manifest form of the profile.
type ProfileExport struct {
	Phases []PhaseStat  `json:"phases,omitempty"`
	Folded []FoldedLine `json:"folded,omitempty"`
}

// Export builds the manifest form, or nil if no spans closed. Spans that
// opened but never closed leave empty aggregates, which are skipped.
func (p *Profile) Export() *ProfileExport {
	names := make([]string, 0, len(p.phases))
	for k, a := range p.phases {
		if a.count > 0 {
			names = append(names, k)
		}
	}
	if len(names) == 0 {
		return nil
	}
	e := &ProfileExport{}
	sort.Strings(names)
	for _, n := range names {
		a := p.phases[n]
		e.Phases = append(e.Phases, PhaseStat{Name: n, Count: a.count, InclusiveNS: a.incl, ExclusiveNS: a.excl})
	}
	paths := make([]string, 0, len(p.folded))
	for k, a := range p.folded {
		if a.count > 0 {
			paths = append(paths, k)
		}
	}
	sort.Strings(paths)
	for _, pa := range paths {
		a := p.folded[pa]
		e.Folded = append(e.Folded, FoldedLine{Stack: pa, Count: a.count, NS: a.excl})
	}
	return e
}

// FoldedText renders the collapsed-stack flamegraph text: one line per
// unique stack, "stack value", value in exclusive virtual nanoseconds.
func (e *ProfileExport) FoldedText() string {
	if e == nil {
		return ""
	}
	var b strings.Builder
	for _, f := range e.Folded {
		fmt.Fprintf(&b, "%s %d\n", f.Stack, f.NS)
	}
	return b.String()
}
