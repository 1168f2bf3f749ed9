package perf

import "testing"

func TestCounters(t *testing.T) {
	c := Counters{}
	c.Add("steals", 3)
	c.Add("steals", 2)
	c.Add("local", 1)
	if c.Get("steals") != 5 || c.Get("missing") != 0 {
		t.Errorf("counters wrong: %v", c)
	}
	d := Counters{"steals": 10}
	d.Merge(c)
	if d.Get("steals") != 15 || d.Get("local") != 1 {
		t.Errorf("merge wrong: %v", d)
	}
	if s := c.String(); s != "local=1 steals=5" {
		t.Errorf("String = %q", s)
	}
}

func TestMedianAndMean(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %g", m)
	}
	if m := Median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("even median = %g", m)
	}
	if m := Median(nil); m != 0 {
		t.Errorf("empty median = %g", m)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5} // sorted: 1 2 3 4 5
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
		{0.10, 1.4}, {0.90, 4.6},
		{-1, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); got != c.want {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty Quantile must be 0")
	}
	if Quantile([]float64{7}, 0.9) != 7 {
		t.Error("single-sample Quantile must be the sample")
	}
	// Quantile must not reorder its input.
	if xs[0] != 4 {
		t.Error("Quantile mutated its input")
	}
	// Agreement with Median on both parities.
	for _, s := range [][]float64{{3, 1, 2}, {4, 1, 2, 3}} {
		if Quantile(s, 0.5) != Median(s) {
			t.Errorf("Quantile(0.5) %g != Median %g on %v", Quantile(s, 0.5), Median(s), s)
		}
	}
}

func TestPercentiles(t *testing.T) {
	p10, med, p90 := Percentiles([]float64{1, 2, 3, 4, 5})
	if p10 != 1.4 || med != 3 || p90 != 4.6 {
		t.Errorf("Percentiles = %g/%g/%g, want 1.4/3/4.6", p10, med, p90)
	}
}

func TestInt64s(t *testing.T) {
	got := Int64s([]int64{3, 0, -2})
	if len(got) != 3 || got[0] != 3 || got[1] != 0 || got[2] != -2 {
		t.Errorf("Int64s = %v", got)
	}
}
