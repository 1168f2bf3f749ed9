package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/apps/ft"
	"repro/internal/apps/netbench"
	"repro/internal/apps/ra"
	"repro/internal/apps/stream"
	"repro/internal/apps/uts"
	"repro/internal/causality"
	"repro/internal/sweep"
	"repro/internal/topo"
	"repro/internal/trace"
)

// A plan holds the distinct simulations of every step of the index.
// Each step renders twice: a planning pass into io.Discard, whose
// lookups register their points and return zero outcomes, and, after run
// has simulated every point once in first-lookup order (index order),
// the real pass. A step picks its keys from its inputs alone, never from
// outcomes, so both passes look up the same points.
type plan struct {
	quick  bool
	step   string // the step rendering now
	ran    bool
	index  map[fmt.Stringer]*point
	points []*point // in first-lookup order
}

// point is one distinct simulation: its key, the first step that looked
// it up, whether any step wants its critical-path wait share, and, once
// the plan has run, the outcome of its kind.
type point struct {
	key      fmt.Stringer
	step     string
	causal   bool
	uts      uts.Result
	ft       ft.Result
	cpWait   float64
	stream   stream.Result
	xlate    xlateResult
	exchange ft.ExchangeResult
	net      netbench.Result
	ra       ra.Result
}

// twistedPoint keys a Table 3.1 variant.
type twistedPoint struct{ variant stream.Variant }

func (k twistedPoint) String() string { return fmt.Sprintf("twisted {%v}", k.variant) }

// hybridPoint keys a Table 4.1 row (an index of stream.Table41Rows).
type hybridPoint struct{ row int }

func (k hybridPoint) String() string {
	return fmt.Sprintf("hybrid {%s}", stream.Table41Rows()[k.row].Name)
}

// xlatePoint keys a Figure 3.1b translation regime by machine preset.
type xlatePoint struct{ preset string }

func (k xlatePoint) String() string { return fmt.Sprintf("xlate {%s}", k.preset) }

// utsPoint keys a Figure 3.3 configuration point (see utsConfig).
type utsPoint struct {
	conduit string
	procs   int
	strat   uts.Strategy
}

func (k utsPoint) String() string {
	return fmt.Sprintf("uts {%s %d %v}", k.conduit, k.procs, k.strat)
}

// exchangePoint keys a Figure 3.4 all-to-all of class B on Pyramid.
type exchangePoint struct {
	threads, perNode int
	mode             ft.ExchangeMode
	async            bool
}

func (k exchangePoint) String() string {
	return fmt.Sprintf("exchange {%d %d %v %v}", k.threads, k.perNode, k.mode, k.async)
}

// netPoint keys a Figure 4.2 measurement: a latency run for panel "a",
// a flood run for panel "b".
type netPoint struct {
	links    int
	pthreads bool
	size     int64
	panel    string
}

func (k netPoint) String() string {
	return fmt.Sprintf("netbench {%d %v %d %s}", k.links, k.pthreads, k.size, k.panel)
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

// raPoint keys a RandomAccess variant.
type raPoint struct{ variant ra.Variant }

func (k raPoint) String() string { return fmt.Sprintf("ra {%v}", k.variant) }

// newPlan runs the planning pass of steps.
func newPlan(steps []step, quick bool) *plan {
	p := &plan{quick: quick, index: map[fmt.Stringer]*point{}}
	for _, s := range steps {
		p.step = s.name
		_ = s.render(io.Discard, p) // only outcomes fail a render, and this pass has none
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
// first step that looked it up and the point. A point whose simulation
// panics (a model process giving up under a fault schedule) fails the
// same way, with the panic's first line as the cause, instead of taking
// down the sweep's worker.
func (p *plan) run() error {
	p.ran = true
	cls, _ := ft.ClassByName("B")
	return sweep.Run(len(p.points), func(i int, tr trace.Tracer) (err error) {
		pt := p.points[i]
		defer func() {
			if r := recover(); r != nil {
				msg, _, _ := strings.Cut(fmt.Sprint(r), "\n")
				err = fmt.Errorf("%s: %v: %s", pt.step, pt.key, msg)
			}
		}()
		var rec *causality.Recorder
		if pt.causal {
			rec = causality.NewRecorder()
			tr = trace.Tee(rec, tr)
		}
		switch k := pt.key.(type) {
		case twistedPoint:
			pt.stream, err = stream.RunTwisted(stream.TwistedConfig{Variant: k.variant, Seed: seed, Tracer: tr})
		case hybridPoint:
			cfg := stream.Table41Rows()[k.row].Config
			cfg.Seed, cfg.Tracer = seed, tr
			pt.stream, err = stream.RunHybrid(cfg)
		case xlatePoint:
			pt.xlate, err = xlateKernel(k.preset, tr)
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
		case exchangePoint:
			pt.exchange, err = ft.RunExchange(ft.ExchangeConfig{
				Class: cls, Threads: k.threads, PerNode: k.perNode,
				Mode: k.mode, Async: k.async, Seed: seed, Tracer: tr,
			})
		case netPoint:
			cfg := netbench.Config{Links: k.links, Pthreads: k.pthreads, Size: k.size, Seed: seed, Tracer: tr}
			if k.panel == "a" {
				pt.net, err = netbench.Latency(cfg)
			} else {
				pt.net, err = netbench.Flood(cfg)
			}
		case raPoint:
			pt.ra, err = ra.Run(ra.Config{
				Machine: topo.Pyramid(), Threads: raThreads, PerNode: raPerNode,
				TableSize: raTable, Updates: raUpdates, Variant: k.variant,
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
