package causality

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Export is the JSON-ready analysis result: one entry per run plus
// cross-run totals. Every slice is pre-sorted with deterministic
// tie-breaks and no map reaches the encoder, so equal streams produce
// byte-identical files — the property the equivalence gate
// compares across -parallel worker counts.
type Export struct {
	Runs []RunAnalysis `json:"runs"`
	// TotalMakespanNS sums the run makespans.
	TotalMakespanNS int64 `json:"total_makespan_ns"`
	// Totals aggregates critical-path segments across runs.
	Totals []SegmentExport `json:"totals,omitempty"`
}

// RunAnalysis is one run's wait-state and critical-path analysis.
type RunAnalysis struct {
	Seed       int64 `json:"seed"`
	MakespanNS int64 `json:"makespan_ns"`
	Procs      int   `json:"procs"`
	Waits      int   `json:"waits"`
	Edges      int64 `json:"edges"`
	DeliverNS  int64 `json:"deliver_bytes,omitempty"`

	CriticalPath CPExport          `json:"critical_path"`
	WaitClasses  []WaitClassExport `json:"wait_classes,omitempty"`
	Phases       []PhaseExport     `json:"phases,omitempty"`
}

// CPExport is the critical path's per-segment attribution with
// thread- and node-level rollups.
type CPExport struct {
	Segments []SegmentExport `json:"segments"`
	Threads  []ShareExport   `json:"threads,omitempty"`
	Nodes    []NodeShare     `json:"nodes,omitempty"`
	Steps    int             `json:"steps"`
}

// SegmentExport is the critical-path time of one category.
type SegmentExport struct {
	Category string  `json:"category"`
	NS       int64   `json:"ns"`
	Pct      float64 `json:"pct"`
}

// ShareExport is one thread's share of the critical path.
type ShareExport struct {
	Thread string  `json:"thread"`
	NS     int64   `json:"ns"`
	Pct    float64 `json:"pct"`
}

// NodeShare is one node's share of the critical path (-1: unknown).
type NodeShare struct {
	Node int     `json:"node"`
	NS   int64   `json:"ns"`
	Pct  float64 `json:"pct"`
}

// WaitClassExport aggregates one wait class over a run.
type WaitClassExport struct {
	Class     string        `json:"class"`
	Instances int           `json:"instances"`
	TotalNS   int64         `json:"total_ns"`
	MaxNS     int64         `json:"max_ns"`
	Blamed    []BlameExport `json:"blamed,omitempty"`
}

// BlameExport is one thread's share of a wait class's blame, after the
// transitive root-cause walk.
type BlameExport struct {
	Thread    string `json:"thread"`
	Instances int    `json:"instances"`
	NS        int64  `json:"ns"`
}

// PhaseExport is the imbalance summary of one synchronization site
// kind (barrier or collective generations).
type PhaseExport struct {
	Site               string  `json:"site"`
	Generations        int     `json:"generations"`
	Waiters            int     `json:"waiters"`
	TotalWaitNS        int64   `json:"total_wait_ns"`
	MaxOverAvg         float64 `json:"max_over_avg"`
	TopBlame           string  `json:"top_blame,omitempty"`
	BlameConcentration float64 `json:"blame_concentration"`
}

// pct rounds a share to two decimals so the JSON stays tidy while
// remaining a pure function of the integer inputs.
func pct(ns, total int64) float64 {
	if total <= 0 {
		return 0
	}
	return math.Round(10000*float64(ns)/float64(total)) / 100
}

// Export closes the run in progress and assembles the closed runs'
// analyses. Idempotent: the first call freezes the result.
func (rec *Recorder) Export() *Export {
	if rec.exp == nil {
		rec.endRun()
		exp := &Export{Runs: append(make([]RunAnalysis, 0, len(rec.runs)), rec.runs...)}
		catTotals := map[string]int64{}
		for _, ra := range rec.runs {
			exp.TotalMakespanNS += ra.MakespanNS
			for _, s := range ra.CriticalPath.Segments {
				catTotals[s.Category] += s.NS
			}
		}
		exp.Totals = segmentList(catTotals, exp.TotalMakespanNS)
		rec.exp = exp
	}
	return rec.exp
}

// segmentList renders a category->ns map as a name-sorted list.
func segmentList(cats map[string]int64, total int64) []SegmentExport {
	names := make([]string, 0, len(cats))
	for c := range cats {
		names = append(names, c)
	}
	sort.Strings(names)
	out := make([]SegmentExport, 0, len(names))
	for _, c := range names {
		out = append(out, SegmentExport{Category: c, NS: cats[c], Pct: pct(cats[c], total)})
	}
	return out
}

// analyze builds one run's full analysis around its critical path.
func (r *run) analyze(acc *cpAccum) RunAnalysis {
	ra := RunAnalysis{
		Seed: r.seed, MakespanNS: r.maxTime,
		Procs: len(r.order), Edges: r.edges, DeliverNS: r.deliverB,
	}

	// Critical path.
	ra.CriticalPath.Steps = acc.steps
	ra.CriticalPath.Segments = segmentList(acc.cats, r.maxTime)
	procs := make([]int32, 0, len(acc.perProc))
	for p := range acc.perProc {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool {
		a, b := acc.perProc[procs[i]], acc.perProc[procs[j]]
		if a != b {
			return a > b
		}
		return procs[i] < procs[j]
	})
	for _, p := range procs {
		name := "?"
		if ps := r.lookup(p); ps != nil && ps.name != "" {
			name = ps.name
		}
		ra.CriticalPath.Threads = append(ra.CriticalPath.Threads,
			ShareExport{Thread: name, NS: acc.perProc[p], Pct: pct(acc.perProc[p], r.maxTime)})
	}
	nodes := make([]int, 0, len(acc.perNode))
	for n := range acc.perNode {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	for _, n := range nodes {
		ra.CriticalPath.Nodes = append(ra.CriticalPath.Nodes,
			NodeShare{Node: n, NS: acc.perNode[n], Pct: pct(acc.perNode[n], r.maxTime)})
	}

	// Wait-class rollup with root-cause blame.
	type classAgg struct {
		n     int
		total int64
		max   int64
		blame map[int]*BlameExport // root thread id
	}
	var classes [numClasses]*classAgg
	for _, pid := range r.order {
		ps := r.lookup(pid)
		for i := range ps.waits {
			w := &ps.waits[i]
			ra.Waits++
			ca := classes[w.class]
			if ca == nil {
				ca = &classAgg{blame: map[int]*BlameExport{}}
				classes[w.class] = ca
			}
			d := w.end - w.begin
			ca.n++
			ca.total += d
			if d > ca.max {
				ca.max = d
			}
			if w.blamedThread >= 0 {
				root := r.rootBlame(int(w.blamedThread), w.end, w.begin)
				be := ca.blame[root]
				if be == nil {
					be = &BlameExport{Thread: r.threadName(root)}
					ca.blame[root] = be
				}
				be.Instances++
				be.NS += d
			}
		}
	}
	for c, ca := range classes {
		if ca == nil {
			continue
		}
		wce := WaitClassExport{Class: classNames[c], Instances: ca.n, TotalNS: ca.total, MaxNS: ca.max}
		for _, be := range ca.blame {
			wce.Blamed = append(wce.Blamed, *be)
		}
		sort.Slice(wce.Blamed, func(i, j int) bool {
			if wce.Blamed[i].NS != wce.Blamed[j].NS {
				return wce.Blamed[i].NS > wce.Blamed[j].NS
			}
			return wce.Blamed[i].Thread < wce.Blamed[j].Thread
		})
		ra.WaitClasses = append(ra.WaitClasses, wce)
	}
	sort.Slice(ra.WaitClasses, func(i, j int) bool {
		return ra.WaitClasses[i].Class < ra.WaitClasses[j].Class
	})

	// Per-phase imbalance: barrier/collective generations.
	type genAgg struct {
		n     int
		total int64
		max   int64
	}
	genWaits := make([]genAgg, len(r.gens))
	for _, pid := range r.order {
		ps := r.lookup(pid)
		for i := range ps.waits {
			w := &ps.waits[i]
			if w.gen < 0 {
				continue
			}
			ga := &genWaits[w.gen]
			d := w.end - w.begin
			ga.n++
			ga.total += d
			if d > ga.max {
				ga.max = d
			}
		}
	}
	type siteAgg struct {
		gens    int
		waiters int
		total   int64
		sumMax  float64
		sumAvg  float64
		blame   map[int]int // releaser thread -> generations blamed
	}
	sites := map[string]*siteAgg{}
	for i := range genWaits {
		ga, g := &genWaits[i], &r.gens[i]
		if ga.n == 0 {
			continue
		}
		sa := sites[g.key.site]
		if sa == nil {
			sa = &siteAgg{blame: map[int]int{}}
			sites[g.key.site] = sa
		}
		sa.gens++
		sa.waiters += ga.n
		sa.total += ga.total
		sa.sumMax += float64(ga.max)
		sa.sumAvg += float64(ga.total) / float64(ga.n)
		if g.releaser >= 0 {
			sa.blame[int(g.releaser)]++
		}
	}
	siteNames := make([]string, 0, len(sites))
	for s := range sites {
		siteNames = append(siteNames, s)
	}
	sort.Strings(siteNames)
	for _, s := range siteNames {
		sa := sites[s]
		pe := PhaseExport{Site: s, Generations: sa.gens, Waiters: sa.waiters, TotalWaitNS: sa.total}
		if sa.sumAvg > 0 {
			pe.MaxOverAvg = math.Round(100*sa.sumMax/sa.sumAvg) / 100
		}
		top, topN, total := -1, 0, 0
		tids := make([]int, 0, len(sa.blame))
		for tid := range sa.blame {
			tids = append(tids, tid)
		}
		sort.Ints(tids)
		for _, tid := range tids {
			n := sa.blame[tid]
			total += n
			if n > topN {
				top, topN = tid, n
			}
		}
		if top >= 0 {
			pe.TopBlame = r.threadName(top)
			pe.BlameConcentration = math.Round(10000*float64(topN)/float64(total)) / 10000
		}
		ra.Phases = append(ra.Phases, pe)
	}

	return ra
}

// Write serializes the export as indented JSON.
func (e *Export) Write(w io.Writer) error {
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return fmt.Errorf("causality: %w", err)
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteFile writes the export to path.
func (e *Export) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("causality: %w", err)
	}
	if err := e.Write(f); err != nil {
		f.Close()
		return fmt.Errorf("causality: writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("causality: %w", err)
	}
	return nil
}

// LoadExport reads a standalone export back from path.
func LoadExport(path string) (*Export, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("causality: %w", err)
	}
	e := &Export{}
	if err := json.Unmarshal(b, e); err != nil {
		return nil, fmt.Errorf("causality: parsing %s: %w", path, err)
	}
	return e, nil
}

// FoldedText renders the critical path as collapsed stacks
// ("critical;<category>;<thread> <ns>"), aggregated over runs and
// sorted, for flamegraph tooling.
func (rec *Recorder) FoldedText() string {
	rec.Export() // finalize
	keys := make([]string, 0, len(rec.folded))
	for k := range rec.folded {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "critical;%s %d\n", k, rec.folded[k])
	}
	return sb.String()
}

// Summary renders a compact human overview of the export.
func (e *Export) Summary(w io.Writer, top int) {
	fmt.Fprintf(w, "runs=%d makespan=%s\n", len(e.Runs), fmtNS(e.TotalMakespanNS))
	for _, s := range e.Totals {
		fmt.Fprintf(w, "  %-8s %14s %6.2f%%\n", s.Category, fmtNS(s.NS), s.Pct)
	}
	for i := range e.Runs {
		ra := &e.Runs[i]
		fmt.Fprintf(w, "run %d: seed=%d makespan=%s procs=%d waits=%d edges=%d steps=%d\n",
			i, ra.Seed, fmtNS(ra.MakespanNS), ra.Procs, ra.Waits, ra.Edges, ra.CriticalPath.Steps)
		fmt.Fprintf(w, "  critical path:\n")
		for _, s := range ra.CriticalPath.Segments {
			fmt.Fprintf(w, "    %-8s %14s %6.2f%%\n", s.Category, fmtNS(s.NS), s.Pct)
		}
		if n := len(ra.CriticalPath.Threads); n > 0 {
			lim := min(top, n)
			fmt.Fprintf(w, "  top threads on path:\n")
			for _, t := range ra.CriticalPath.Threads[:lim] {
				fmt.Fprintf(w, "    %-12s %14s %6.2f%%\n", t.Thread, fmtNS(t.NS), t.Pct)
			}
		}
		if len(ra.WaitClasses) > 0 {
			fmt.Fprintf(w, "  wait states:\n")
			for _, wc := range ra.WaitClasses {
				fmt.Fprintf(w, "    %-14s n=%-6d total=%-12s max=%s", wc.Class, wc.Instances,
					fmtNS(wc.TotalNS), fmtNS(wc.MaxNS))
				lim := min(top, len(wc.Blamed))
				for _, b := range wc.Blamed[:lim] {
					fmt.Fprintf(w, "  %s(%d,%s)", b.Thread, b.Instances, fmtNS(b.NS))
				}
				fmt.Fprintln(w)
			}
		}
		for _, ph := range ra.Phases {
			fmt.Fprintf(w, "  phase %-8s gens=%-5d waiters=%-6d wait=%-12s max/avg=%.2f",
				ph.Site, ph.Generations, ph.Waiters, fmtNS(ph.TotalWaitNS), ph.MaxOverAvg)
			if ph.TopBlame != "" {
				fmt.Fprintf(w, " top-blame=%s (%.0f%%)", ph.TopBlame, 100*ph.BlameConcentration)
			}
			fmt.Fprintln(w)
		}
	}
}

// BlameTable renders the top-N blamed threads across all runs and
// classes, by blamed wait time.
func (e *Export) BlameTable(w io.Writer, top int) {
	type key struct{ thread, class string }
	agg := map[key]*BlameExport{}
	for i := range e.Runs {
		for _, wc := range e.Runs[i].WaitClasses {
			for _, b := range wc.Blamed {
				k := key{b.Thread, wc.Class}
				a := agg[k]
				if a == nil {
					a = &BlameExport{Thread: b.Thread}
					agg[k] = a
				}
				a.Instances += b.Instances
				a.NS += b.NS
			}
		}
	}
	type row struct {
		thread, class string
		n             int
		ns            int64
	}
	rows := make([]row, 0, len(agg))
	for k, a := range agg {
		rows = append(rows, row{k.thread, k.class, a.Instances, a.NS})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].ns != rows[j].ns {
			return rows[i].ns > rows[j].ns
		}
		if rows[i].thread != rows[j].thread {
			return rows[i].thread < rows[j].thread
		}
		return rows[i].class < rows[j].class
	})
	if len(rows) > top {
		rows = rows[:top]
	}
	fmt.Fprintf(w, "%-12s %-14s %8s %14s\n", "THREAD", "CLASS", "WAITS", "BLAMED-NS")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-14s %8d %14d\n", r.thread, r.class, r.n, r.ns)
	}
}

// fmtNS renders nanoseconds with a readable unit.
func fmtNS(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.3fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.3fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.3fµs", float64(ns)/1e3)
	}
	return fmt.Sprintf("%dns", ns)
}
