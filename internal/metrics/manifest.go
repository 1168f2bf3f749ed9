package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"

	"repro/internal/causality"
)

// Manifest is the single JSON artifact a -metrics run emits: the
// invocation's identity (tool, parameters, seeds), the stream-level
// fingerprint (runs, events, digest, total virtual time), the registry
// contents, and the three collector exports. encoding/json serializes
// the map fields with sorted keys and every slice field is exported
// pre-sorted, so equal runs produce byte-identical files.
type Manifest struct {
	Tool   string            `json:"tool"`
	Params map[string]string `json:"params,omitempty"`
	Runs   int64             `json:"runs"`
	Seeds  []int64           `json:"seeds,omitempty"`
	Events int64             `json:"events"`
	Digest string            `json:"digest"`
	// VirtualNS is the summed final virtual time across runs.
	VirtualNS  int64             `json:"virtual_ns"`
	Counters   map[string]int64  `json:"counters,omitempty"`
	Gauges     map[string]int64  `json:"gauges,omitempty"`
	Histograms []HistogramExport `json:"histograms,omitempty"`
	Comm       *CommExport       `json:"comm,omitempty"`
	Util       *UtilExport       `json:"util,omitempty"`
	Profile    *ProfileExport    `json:"profile,omitempty"`
	// Analysis is the causality engine's wait-state and critical-path
	// analysis, present when the run was collected with -analyze.
	Analysis *causality.Export `json:"analysis,omitempty"`
}

// Write serializes the manifest as indented JSON.
func (m *Manifest) Write(w io.Writer) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteFile writes the manifest to path.
func (m *Manifest) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if err := m.Write(f); err != nil {
		f.Close()
		return fmt.Errorf("metrics: writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	return nil
}

// Load reads a manifest back from path.
func Load(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	m := &Manifest{}
	if err := json.Unmarshal(b, m); err != nil {
		return nil, fmt.Errorf("metrics: parsing %s: %w", path, err)
	}
	return m, nil
}

// Metric is one flattened manifest value: a dotted name and its
// numeric value.
type Metric struct {
	Name  string
	Value float64
}

// Flatten projects every numeric value in the manifest onto a flat,
// name-sorted metric list — the representation Diff compares and the
// summary renders.
func (m *Manifest) Flatten() []Metric {
	var out []Metric
	add := func(name string, v float64) { out = append(out, Metric{name, v}) }
	add("runs", float64(m.Runs))
	add("events", float64(m.Events))
	add("virtual_ns", float64(m.VirtualNS))
	for k, v := range m.Counters {
		add("counters."+k, float64(v))
	}
	for k, v := range m.Gauges {
		add("gauges."+k, float64(v))
	}
	for _, h := range m.Histograms {
		add("hist."+h.Name+".count", float64(h.Count))
		add("hist."+h.Name+".sum", float64(h.Sum))
		add("hist."+h.Name+".min", float64(h.Min))
		add("hist."+h.Name+".max", float64(h.Max))
		for _, b := range h.Buckets {
			add("hist."+h.Name+".bit"+strconv.Itoa(b.Bit), float64(b.Count))
		}
	}
	if m.Comm != nil {
		for _, c := range m.Comm.Classes {
			add("comm.class."+c.Class+".msgs", float64(c.Messages))
			add("comm.class."+c.Class+".bytes", float64(c.Bytes))
		}
		for _, c := range m.Comm.Nodes {
			p := fmt.Sprintf("comm.node.%d-%d.%s", c.Src, c.Dst, c.Class)
			add(p+".msgs", float64(c.Messages))
			add(p+".bytes", float64(c.Bytes))
		}
		for _, c := range m.Comm.Threads {
			p := fmt.Sprintf("comm.thread.%d-%d.%s", c.Src, c.Dst, c.Class)
			add(p+".msgs", float64(c.Messages))
			add(p+".bytes", float64(c.Bytes))
		}
	}
	if m.Util != nil {
		add("util.interval_ns", float64(m.Util.IntervalNS))
		for _, l := range m.Util.Links {
			p := "util.link." + l.Name
			add(p+".busy_ns", float64(l.BusyNS))
			add(p+".observed_ns", float64(l.ObservedNS))
			add(p+".peak", float64(l.Peak))
			add(p+".depth_ns", float64(l.DepthNS))
			for _, t := range l.Timeline {
				add(p+".t"+strconv.Itoa(t.I), float64(t.Busy))
			}
		}
	}
	if m.Profile != nil {
		for _, ph := range m.Profile.Phases {
			p := "profile.phase." + ph.Name
			add(p+".count", float64(ph.Count))
			add(p+".incl_ns", float64(ph.InclusiveNS))
			add(p+".excl_ns", float64(ph.ExclusiveNS))
		}
		for _, f := range m.Profile.Folded {
			add("profile.stack."+f.Stack+".ns", float64(f.NS))
		}
	}
	if m.Analysis != nil {
		add("analysis.makespan_ns", float64(m.Analysis.TotalMakespanNS))
		for _, s := range m.Analysis.Totals {
			add("analysis.critical."+s.Category+".ns", float64(s.NS))
		}
		for i := range m.Analysis.Runs {
			ra := &m.Analysis.Runs[i]
			p := "analysis.run" + strconv.Itoa(i)
			add(p+".waits", float64(ra.Waits))
			add(p+".edges", float64(ra.Edges))
			for _, s := range ra.CriticalPath.Segments {
				add(p+".critical."+s.Category+".ns", float64(s.NS))
			}
			for _, wc := range ra.WaitClasses {
				add(p+".wait."+wc.Class+".n", float64(wc.Instances))
				add(p+".wait."+wc.Class+".ns", float64(wc.TotalNS))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Delta is one metric whose values differ between two manifests beyond
// the tolerance. InA/InB report presence; Rel is the relative
// difference |a-b| / max(|a|,|b|) (1 for one-sided metrics and for a
// digest mismatch).
type Delta struct {
	Name string
	A, B float64
	InA  bool
	InB  bool
	Rel  float64
}

// Diff compares two manifests metric by metric, returning every delta
// whose relative difference exceeds tol (0 demands exact equality),
// sorted by metric name. A digest mismatch is reported as the metric
// "digest" with Rel 1, and any difference between the two analysis
// sections, including fields Flatten leaves out (blame rows, phases,
// critical-path thread and node shares, run seeds), as the metric
// "analysis" with Rel 1.
func Diff(a, b *Manifest, tol float64) []Delta {
	fa, fb := a.Flatten(), b.Flatten()
	ma := make(map[string]float64, len(fa))
	for _, m := range fa {
		ma[m.Name] = m.Value
	}
	mb := make(map[string]float64, len(fb))
	for _, m := range fb {
		mb[m.Name] = m.Value
	}
	names := make([]string, 0, len(ma))
	for k := range ma {
		names = append(names, k)
	}
	for k := range mb {
		if _, ok := ma[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	var out []Delta
	for _, n := range names {
		va, ina := ma[n]
		vb, inb := mb[n]
		d := Delta{Name: n, A: va, B: vb, InA: ina, InB: inb}
		switch {
		case !ina || !inb:
			d.Rel = 1
		default:
			d.Rel = relDiff(va, vb)
		}
		if d.Rel > tol {
			out = append(out, d)
		}
	}
	if a.Digest != b.Digest {
		out = append(out, Delta{Name: "digest", InA: true, InB: true, Rel: 1})
	}
	ja, errA := json.Marshal(a.Analysis)
	jb, errB := json.Marshal(b.Analysis)
	if errA != nil || errB != nil || !bytes.Equal(ja, jb) {
		out = append(out, Delta{Name: "analysis", InA: a.Analysis != nil, InB: b.Analysis != nil, Rel: 1})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// relDiff reports |a-b| scaled by the larger magnitude (0 when equal).
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// Summary renders a compact human overview of one manifest: identity
// line, per-class communication rollup, the busiest links, and the
// heaviest phases.
func (m *Manifest) Summary(w io.Writer) {
	fmt.Fprintf(w, "tool=%s runs=%d events=%d virtual=%s digest=%s\n",
		m.Tool, m.Runs, m.Events, fmtNS(m.VirtualNS), m.Digest)
	if len(m.Seeds) > 0 {
		fmt.Fprintf(w, "seeds=%v\n", m.Seeds)
	}
	if m.Comm != nil {
		fmt.Fprintf(w, "comm: %d cells (%d node pairs)\n", len(m.Comm.Threads)+m.Comm.ThreadsOmitted, len(m.Comm.Nodes))
		for _, c := range m.Comm.Classes {
			fmt.Fprintf(w, "  %-8s %12d bytes %8d msgs\n", c.Class, c.Bytes, c.Messages)
		}
	}
	if m.Util != nil {
		top := topLinks(m.Util.Links, 8)
		fmt.Fprintf(w, "util: %d links, busiest:\n", len(m.Util.Links))
		for _, l := range top {
			frac := 0.0
			if l.ObservedNS > 0 {
				frac = float64(l.BusyNS) / float64(l.ObservedNS)
			}
			fmt.Fprintf(w, "  %-12s busy=%5.1f%% peak=%d\n", l.Name, 100*frac, l.Peak)
		}
	}
	if m.Profile != nil {
		top := TopPhases(m.Profile.Phases, 8)
		fmt.Fprintf(w, "profile: %d phases, heaviest (exclusive):\n", len(m.Profile.Phases))
		for _, p := range top {
			fmt.Fprintf(w, "  %-24s n=%-8d incl=%s excl=%s\n", p.Name, p.Count, fmtNS(p.InclusiveNS), fmtNS(p.ExclusiveNS))
		}
	}
}

// topLinks returns the n busiest links by busy time (ties by name).
func topLinks(links []LinkUtil, n int) []LinkUtil {
	out := append([]LinkUtil(nil), links...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].BusyNS != out[j].BusyNS {
			return out[i].BusyNS > out[j].BusyNS
		}
		return out[i].Name < out[j].Name
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// TopPhases returns the n heaviest phases by exclusive time (ties by
// name).
func TopPhases(phases []PhaseStat, n int) []PhaseStat {
	out := append([]PhaseStat(nil), phases...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].ExclusiveNS != out[j].ExclusiveNS {
			return out[i].ExclusiveNS > out[j].ExclusiveNS
		}
		return out[i].Name < out[j].Name
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
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
