// Package metrics is the run-metrics layer: deterministic, virtual-time
// aggregations of the trace event stream, serialized into a single JSON
// run manifest per invocation (the -metrics flag of the cmd/upc-*
// binaries). Everything here is derived from trace events — no wall
// clock, no sampling threads — so two same-seed runs produce
// byte-identical manifests at any -parallel level, and cmd/upc-metrics
// can diff manifests the way the CI gate diffs trace digests.
//
// The package provides a small registry (counters, gauges, fixed-bucket
// histograms; all exports sorted by key) plus three trace-fed
// collectors: the communication matrix (comm.go), link-utilization
// timelines (util.go), and the virtual-time profile (profile.go).
// Collection (collection.go) bundles all four behind one trace.Tracer.
package metrics

import (
	"math/bits"
	"sort"
)

// Registry holds named counters, gauges and histograms. It is not
// safe for concurrent use; like every trace sink it relies on the
// engine's serialized emission (and the sweep layer's buffer replay)
// for ordering.
//
// Every entry lives behind a pointer that stays put once the name is
// first used, so a hot caller can resolve a name once and update the
// entry directly afterwards (Collection caches them per event key).
type Registry struct {
	counters map[string]*int64
	gauges   map[string]*int64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*int64{},
		gauges:   map[string]*int64{},
		hists:    map[string]*Histogram{},
	}
}

// counter returns the named counter, creating it at zero.
func (r *Registry) counter(name string) *int64 {
	c := r.counters[name]
	if c == nil {
		c = new(int64)
		r.counters[name] = c
	}
	return c
}

// gauge returns the named gauge, creating it at v.
func (r *Registry) gauge(name string, v int64) *int64 {
	g := r.gauges[name]
	if g == nil {
		g = &v
		r.gauges[name] = g
	}
	return g
}

// hist returns the named histogram, creating it empty with v as the
// minimum its first sample will confirm.
func (r *Registry) hist(name string, v int64) *Histogram {
	h := r.hists[name]
	if h == nil {
		h = &Histogram{Min: v}
		r.hists[name] = h
	}
	return h
}

// Add adds delta to the named counter.
func (r *Registry) Add(name string, delta int64) { *r.counter(name) += delta }

// Counter reports the named counter's total (0 if never added).
func (r *Registry) Counter(name string) int64 { return deref(r.counters[name]) }

func setMax(g *int64, v int64) {
	if v > *g {
		*g = v
	}
}

// Gauge reports the named gauge's value (0 if never set).
func (r *Registry) Gauge(name string) int64 { return deref(r.gauges[name]) }

func deref(p *int64) int64 {
	if p == nil {
		return 0
	}
	return *p
}

// Hist reports the named histogram, or nil if it has no samples.
func (r *Registry) Hist(name string) *Histogram { return r.hists[name] }

// Histogram is a fixed-bucket (log2 by bit length) sample aggregate:
// bucket i counts samples whose value has bit length i, so bucket 0
// holds zeros, bucket 1 holds {1}, bucket 11 holds [1024,2047], and the
// full range of int64 fits in 65 buckets. Fixed buckets keep the export
// shape independent of the data, which keeps manifest diffs meaningful.
type Histogram struct {
	Count int64
	Sum   int64
	Min   int64
	Max   int64
	b     [65]int64
}

func (h *Histogram) observe(v int64) {
	h.Count++
	h.Sum += v
	if v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.b[bits.Len64(uint64(v))]++
}

// Bucket reports the count of samples with bit length i.
func (h *Histogram) Bucket(i int) int64 { return h.b[i] }

// HistBucket is one non-empty histogram bucket in an export: Bit is the
// sample bit length, Count the samples in it.
type HistBucket struct {
	Bit   int   `json:"bit"`
	Count int64 `json:"n"`
}

// HistogramExport is the manifest form of one named histogram; only
// non-empty buckets appear, in ascending bit order.
type HistogramExport struct {
	Name    string       `json:"name"`
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Min     int64        `json:"min"`
	Max     int64        `json:"max"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Counters returns a copy of every counter (a map: encoding/json sorts
// the keys, so the serialized form is deterministic).
func (r *Registry) Counters() map[string]int64 { return copyMap(r.counters) }

// Gauges returns a copy of every gauge.
func (r *Registry) Gauges() map[string]int64 { return copyMap(r.gauges) }

func copyMap(m map[string]*int64) map[string]int64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = *v
	}
	return out
}

// Histograms exports every histogram, sorted by name.
func (r *Registry) Histograms() []HistogramExport {
	names := make([]string, 0, len(r.hists))
	for k := range r.hists {
		names = append(names, k)
	}
	sort.Strings(names)
	out := make([]HistogramExport, 0, len(names))
	for _, name := range names {
		h := r.hists[name]
		e := HistogramExport{Name: name, Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max}
		for i, n := range h.b {
			if n != 0 {
				e.Buckets = append(e.Buckets, HistBucket{Bit: i, Count: n})
			}
		}
		out = append(out, e)
	}
	return out
}
