package experiments

import (
	"fmt"
	"io"

	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/upc"
)

// figure31b renders the shared-pointer translation companion to Table
// 3.1: the same class of fine-grained shared element traffic whose
// software decode cost the table's un-cast rows expose, re-run under the
// three translation regimes of the machine model (full software decode,
// a per-thread translation cache, and Serres-style hardware-assisted
// translation selected by the "+xcache"/"+xassist" preset suffixes).
// The kernel's computed checksum is regime-independent — the regimes
// change only the virtual cost of each decode — so the figure reports
// the modeled speedup over the software baseline together with the
// exact hit/miss accounting the trace counters carry.
func figure31b(w io.Writer, p *plan) error {
	modes := []struct{ preset, label string }{
		{"pyramid", "software decode"},
		{"pyramid+xcache", "translation cache"},
		{"pyramid+xassist", "hardware assist"},
	}
	base := p.lookup(xlatePoint{modes[0].preset}, false).xlate
	rows := make([][]string, len(modes))
	for i, mode := range modes {
		r := p.lookup(xlatePoint{mode.preset}, false).xlate
		if r.check != base.check {
			return fmt.Errorf("xlate: %s checksum %d != software %d",
				mode.label, r.check, base.check)
		}
		hitPct := 0.0
		if r.accesses > 0 {
			hitPct = 100 * float64(r.hits) / float64(r.accesses)
		}
		rows[i] = []string{
			mode.label,
			fmt.Sprintf("%.1f", r.elapsed.Seconds()*1e6),
			fmt.Sprintf("%.2f", base.elapsed.Seconds()/r.elapsed.Seconds()),
			fmt.Sprintf("%d", r.accesses),
			fmt.Sprintf("%.1f", hitPct),
		}
	}
	report.Table(w, "Figure 3.1b: Fine-Grained Shared Access Under Translation Regimes",
		[]string{"regime", "time (us)", "speedup", "xlates", "hit %"}, rows)
	return nil
}

// xlateResult is one regime's measurement: the kernel-region virtual
// time, the summed translation counters, and the data checksum that must
// be identical across regimes.
type xlateResult struct {
	elapsed                sim.Duration
	accesses, hits, misses int64
	check                  int64
}

const (
	xlateElems  = 1 << 14 // shared int64s, block-cyclic over 8 threads
	xlateBlock  = 64      // layout block (elements)
	xlatePasses = 4       // rotating sweep passes per thread
)

// xlateKernel runs the fine-grained kernel on the machine preset: 8
// pthreads on one node (every partition castable, so no network cost
// masks the translation charge), each sweeping a rotating window of the
// whole array with ReadElem and writing back its own partition with
// WriteElem.
// Sequential access within layout blocks gives the translation cache a
// realistic mostly-hitting stream while the rotation still forces
// capacity traffic across passes.
func xlateKernel(preset string, tr trace.Tracer) (xlateResult, error) {
	m, ok := topo.ByName(preset)
	if !ok {
		return xlateResult{}, fmt.Errorf("unknown preset %q", preset)
	}
	cfg := upc.Config{
		Machine:        m,
		Threads:        8,
		ThreadsPerNode: 8,
		Backend:        upc.Pthreads,
		Seed:           seed,
		Tracer:         tr,
	}
	rt, err := upc.NewRuntime(cfg)
	if err != nil {
		return xlateResult{}, err
	}
	elapsed := make([]sim.Duration, cfg.Threads)
	checks := make([]int64, cfg.Threads)
	rt.Start(func(th *upc.Thread) {
		s := upc.Alloc[int64](th, xlateElems, 8, xlateBlock)
		loc := s.Local(th)
		for j := range loc {
			loc[j] = int64(s.GlobalIndex(th.ID, j))
		}
		th.Barrier()
		t0 := th.Now()
		span := xlateElems / th.N
		sum := int64(0)
		for p := 0; p < xlatePasses; p++ {
			start := (th.ID*span + p*3*xlateBlock) % xlateElems
			for k := 0; k < span; k++ {
				sum += upc.ReadElem(th, s, (start+k)%xlateElems)
			}
		}
		for k := 0; k < span; k++ {
			i := s.GlobalIndex(th.ID, k)
			upc.WriteElem(th, s, i, upc.ReadElem(th, s, i)+1)
		}
		th.Barrier()
		elapsed[th.ID] = th.Now() - t0
		checks[th.ID] = sum
	})
	if err := rt.Eng.Run(); err != nil {
		return xlateResult{}, err
	}
	var r xlateResult
	r.elapsed = elapsed[0] // barrier-bracketed: identical on every thread
	for i := 0; i < cfg.Threads; i++ {
		a, h, ms := rt.Thread(i).XlateStats()
		r.accesses += a
		r.hits += h
		r.misses += ms
		r.check += checks[i]
	}
	return r, nil
}
