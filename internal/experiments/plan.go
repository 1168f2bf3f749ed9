package experiments

import (
	"fmt"
	"io"

	"repro/internal/apps/ft"
	"repro/internal/apps/uts"
	"repro/internal/causality"
	"repro/internal/sweep"
	"repro/internal/topo"
	"repro/internal/trace"
)

// A plan holds the distinct UTS and FT simulations of the steps that
// share points: Figure 3.3, Table 3.2, Figures 4.4–4.6 and the Summary.
// Each such step renders twice: a planning pass into io.Discard, whose
// lookups register their points and return zero outcomes, and, after run
// has simulated every point once in first-lookup order, the real pass.
// A step picks its keys from its inputs alone, never from outcomes, so
// both passes look up the same points.
type plan struct {
	quick  bool
	step   string // the step rendering now
	ran    bool
	index  map[fmt.Stringer]*point
	points []*point // in first-lookup order
}

// point is one distinct simulation: its key (a utsPoint or an ftPoint),
// the first step that looked it up, whether any step wants its
// critical-path wait share, and, once the plan has run, its outcome.
type point struct {
	key    fmt.Stringer
	step   string
	causal bool
	uts    uts.Result
	ft     ft.Result
	cpWait float64
}

// utsPoint keys a Figure 3.3 configuration point (see utsConfig).
type utsPoint struct {
	conduit string
	procs   int
	strat   uts.Strategy
}

func (k utsPoint) String() string {
	return fmt.Sprintf("uts {%s %d %v}", k.conduit, k.procs, k.strat)
}

// ftPoint keys a class B NAS FT run on a machine preset.
type ftPoint struct {
	machine                string
	variant                ft.Variant
	impl                   ft.Impl
	threads, perNode, subs int
}

func (k ftPoint) String() string {
	return fmt.Sprintf("ft {%s %v %v %d %d %d}", k.machine, k.variant, k.impl, k.threads, k.perNode, k.subs)
}

// newPlan runs the planning pass of every step in steps that renders
// from the plan.
func newPlan(steps []step, quick bool) *plan {
	p := &plan{quick: quick, index: map[fmt.Stringer]*point{}}
	for _, s := range steps {
		if s.render != nil {
			p.step = s.name
			s.render(io.Discard, p)
		}
	}
	return p
}

// lookup returns key's point, ORing causal into its flag. While planning
// it registers a new key under the current step; once the plan has run,
// a key it never planned panics rather than render a zero outcome.
func (p *plan) lookup(key fmt.Stringer, causal bool) *point {
	pt := p.index[key]
	switch {
	case pt == nil && p.ran:
		panic(fmt.Sprintf("experiments: %s looked up %v, which was never planned", p.step, key))
	case pt == nil:
		pt = &point{key: key, step: p.step}
		p.index[key] = pt
		p.points = append(p.points, pt)
	}
	pt.causal = pt.causal || causal
	return pt
}

// run simulates every planned point once, in first-lookup order. A
// causal point feeds a private causality recorder, which its job reduces
// to the wait share before returning. A failing point's error names the
// first step that looked it up and the point.
func (p *plan) run() error {
	p.ran = true
	cls, _ := ft.ClassByName("B")
	return sweep.Run(len(p.points), func(i int, tr trace.Tracer) error {
		pt := p.points[i]
		var rec *causality.Recorder
		if pt.causal {
			rec = causality.NewRecorder()
			tr = trace.Tee(rec, tr)
		}
		var err error
		switch k := pt.key.(type) {
		case utsPoint:
			cfg := utsConfig(k.conduit, k.procs, k.strat, p.quick)
			cfg.Tracer = tr
			pt.uts, err = uts.Run(cfg)
		case ftPoint:
			m, _ := topo.ByName(k.machine)
			pt.ft, err = ft.Run(ft.Config{
				Machine: m, Class: cls, Variant: k.variant, Impl: k.impl,
				Threads: k.threads, PerNode: k.perNode, SubThreads: k.subs,
				Seed: seed, Tracer: tr,
			})
		}
		if err != nil {
			return fmt.Errorf("%s: %v: %w", pt.step, pt.key, err)
		}
		if rec != nil {
			pt.cpWait = cpWaitPct(rec)
		}
		return nil
	})
}
