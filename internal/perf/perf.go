// Package perf provides the benchmark applications' named counters and
// simple statistics over repeated trials and per-thread samples.
package perf

import (
	"fmt"
	"sort"
)

// Counters is a set of named event counters.
type Counters map[string]int64

// Add increments a counter.
func (c Counters) Add(name string, n int64) { c[name] += n }

// Get reports a counter (zero if absent).
func (c Counters) Get(name string) int64 { return c[name] }

// Merge adds every counter of other into c.
func (c Counters) Merge(other Counters) {
	for k, v := range other {
		c[k] += v
	}
}

// String renders the counters sorted by name.
func (c Counters) String() string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for i, k := range keys {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", k, c[k])
	}
	return s
}

// Median reports the median of a sample set (NaN-free inputs assumed; the
// paper reports medians for the microbenchmarks).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// Quantile reports the q-quantile (0 <= q <= 1) of a sample set by
// linear interpolation between order statistics (the convention most
// numeric packages default to); Quantile(xs, 0.5) equals Median(xs).
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if frac == 0 || lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// Percentiles reports the 10th percentile, median and 90th percentile
// of a sample set — the spread the benchmark tables quote alongside the
// median-of-trials, so a skewed trial distribution is visible instead
// of hiding behind one number.
func Percentiles(xs []float64) (p10, med, p90 float64) {
	return Quantile(xs, 0.10), Quantile(xs, 0.50), Quantile(xs, 0.90)
}

// Int64s converts integer samples (per-thread steal counts, ns/op
// trials) to the float64 samples the statistics take.
func Int64s(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
