package netbench

import (
	"testing"

	"repro/internal/sim"
)

func TestSmallMessageLatencyRegime(t *testing.T) {
	// Figure 4.2(a): a single link's 8B get round trip sits in the 4-5us
	// band on QDR InfiniBand.
	r, err := Latency(Config{Links: 1, Size: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.RTT < 3*sim.Microsecond || r.RTT > 7*sim.Microsecond {
		t.Errorf("1-link 8B RTT = %v, want ~4-5us", r.RTT)
	}
}

func TestLatencyGrowsWithSize(t *testing.T) {
	small, err := Latency(Config{Links: 1, Size: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Latency(Config{Links: 1, Size: 32 << 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if large.RTT < 3*small.RTT {
		t.Errorf("32KB RTT (%v) should be much larger than 8B RTT (%v)", large.RTT, small.RTT)
	}
}

func TestPthreadLatencySerializes(t *testing.T) {
	// Figure 4.2(a): with 8 link-pairs, pthread messaging latency
	// serializes on the shared connection; process pairs stay closer to
	// the single-link latency.
	proc, err := Latency(Config{Links: 8, Size: 4096, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pthr, err := Latency(Config{Links: 8, Size: 4096, Pthreads: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("8-link 4KB RTT: processes=%v pthreads=%v", proc.RTT, pthr.RTT)
	if pthr.RTT <= proc.RTT {
		t.Errorf("pthread 8-link RTT (%v) should exceed process RTT (%v)", pthr.RTT, proc.RTT)
	}
}

func TestFloodBandwidthScalesWithLinks(t *testing.T) {
	// Figure 4.2(b): one connection saturates ~1.4-1.5 GB/s; multiple
	// process connections approach the NIC's ~2.3-2.5 GB/s.
	one, err := Flood(Config{Links: 1, Size: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	four, err := Flood(Config{Links: 4, Size: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("flood 1MB: 1 link = %.0f MB/s, 4 links = %.0f MB/s", one.BandwidthMBps, four.BandwidthMBps)
	if one.BandwidthMBps < 1200 || one.BandwidthMBps > 1600 {
		t.Errorf("1-link flood = %.0f MB/s, want ~1400-1500", one.BandwidthMBps)
	}
	if four.BandwidthMBps < 1.3*one.BandwidthMBps {
		t.Errorf("4-link flood (%.0f) should clearly exceed 1 link (%.0f)",
			four.BandwidthMBps, one.BandwidthMBps)
	}
	if four.BandwidthMBps > 2600 {
		t.Errorf("4-link flood %.0f exceeds the NIC", four.BandwidthMBps)
	}
}

func TestPthreadFloodBelowProcesses(t *testing.T) {
	// Figure 4.2(b): pthread link-pairs extract less throughput than
	// process pairs — clearly so in the mid-size range where the shared
	// connection's lock serializes bounce-buffer copies — while multiple
	// pthread streams still beat one link at large sizes.
	procMid, err := Flood(Config{Links: 8, Size: 128 << 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pthrMid, err := Flood(Config{Links: 8, Size: 128 << 10, Pthreads: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("flood 128KB x 8 links: processes=%.0f pthreads=%.0f MB/s",
		procMid.BandwidthMBps, pthrMid.BandwidthMBps)
	if pthrMid.BandwidthMBps >= 0.9*procMid.BandwidthMBps {
		t.Errorf("mid-size pthread flood (%.0f) should be clearly below processes (%.0f)",
			pthrMid.BandwidthMBps, procMid.BandwidthMBps)
	}

	pthrBig, err := Flood(Config{Links: 8, Size: 1 << 20, Pthreads: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	procBig, err := Flood(Config{Links: 8, Size: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	one, err := Flood(Config{Links: 1, Size: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("flood 1MB: 8-link processes=%.0f pthreads=%.0f, 1 link %.0f MB/s",
		procBig.BandwidthMBps, pthrBig.BandwidthMBps, one.BandwidthMBps)
	if pthrBig.BandwidthMBps > 1.05*procBig.BandwidthMBps {
		t.Errorf("1MB pthread flood (%.0f) should not exceed processes (%.0f)",
			pthrBig.BandwidthMBps, procBig.BandwidthMBps)
	}
	if pthrBig.BandwidthMBps <= one.BandwidthMBps {
		t.Errorf("8 pthread streams (%.0f) should still beat a single link (%.0f)",
			pthrBig.BandwidthMBps, one.BandwidthMBps)
	}
}

func TestSmallMessageFloodFavorsMultipleConnections(t *testing.T) {
	// For small/mid sizes the extra connections' parallel injection wins
	// (the paper's "significant improvement ... when more than one UPC
	// threads are used").
	one, err := Flood(Config{Links: 1, Size: 1024, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eight, err := Flood(Config{Links: 8, Size: 1024, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if eight.BandwidthMBps < 1.3*one.BandwidthMBps {
		t.Errorf("8-link 1KB flood (%.0f) should be well above 1 link (%.0f)",
			eight.BandwidthMBps, one.BandwidthMBps)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Latency(Config{Links: 0}); err == nil {
		t.Error("zero links must error")
	}
}

func TestSizeGrids(t *testing.T) {
	ls := LatencySizes()
	if ls[0] != 1 || ls[len(ls)-1] != 32<<10 {
		t.Errorf("latency sizes wrong: %v", ls)
	}
	fs := FloodSizes()
	if fs[0] != 64 || fs[len(fs)-1] != 2<<20 {
		t.Errorf("flood sizes wrong: %v", fs)
	}
}

func TestPthreadLatencyMonotoneInLinks(t *testing.T) {
	// More pthread link-pairs on one shared connection => more
	// serialization => higher RTT, monotonically.
	var prev sim.Duration
	for _, links := range []int{2, 4, 8} {
		r, err := Latency(Config{Links: links, Size: 8192, Pthreads: true, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if r.RTT <= prev {
			t.Errorf("%d links RTT %v not above %d links (%v)", links, r.RTT, links/2, prev)
		}
		prev = r.RTT
	}
}

func TestFloodWindowInsensitiveAtSaturation(t *testing.T) {
	// Once the wire saturates, a deeper window must not create bandwidth.
	w4, err := Flood(Config{Links: 2, Size: 1 << 20, Window: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w16, err := Flood(Config{Links: 2, Size: 1 << 20, Window: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ratio := w16.BandwidthMBps / w4.BandwidthMBps
	// A deeper window adds nothing once saturated, and costs a little
	// goodput through the NIC congestion coefficient.
	if ratio < 0.85 || ratio > 1.02 {
		t.Errorf("window 16 / window 4 bandwidth = %.2f, want ~0.9-1", ratio)
	}
}
