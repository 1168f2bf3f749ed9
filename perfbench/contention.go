package main

import "time"

// probeRefSeconds is contentionProbe's typical time on the 2-vCPU
// recording host. Scaled times are expressed relative to that host state.
const probeRefSeconds = 0.003

// probeRecord and probeLink mirror the shape of the fluid model's rate
// recompute: many small flow records, each reading the shares of the
// links it crosses.
type probeRecord struct {
	rate  float64
	links [2]*probeLink
}

type probeLink struct{ share float64 }

var (
	probeRecords []probeRecord
	probeLinks   [16]probeLink
	probeSink    float64
)

// contentionProbe times a fixed loop that does not depend on the
// repository's code: 400 passes over 4,096 records, about 100 KB, which
// fit in L2. Other tenants on a shared host evict and slow that working
// set, and the simulations with it. On the 2-vCPU recording host, the
// probe's time tracked per-simulation FT wall time with a correlation of
// 0.8-0.87, where a SHA-256 loop showed none. Dividing by it halved the
// run-to-run spread.
func contentionProbe() float64 {
	if probeRecords == nil {
		probeRecords = make([]probeRecord, 4096)
		for i := range probeRecords {
			probeRecords[i].links = [2]*probeLink{&probeLinks[i%8], &probeLinks[8+(i/8)%8]}
		}
		for i := range probeLinks {
			probeLinks[i].share = float64(i + 1)
		}
	}
	t := time.Now()
	for k := 0; k < 400; k++ {
		for i := range probeRecords {
			f := &probeRecords[i]
			r := f.links[0].share
			if s := f.links[1].share; s < r {
				r = s
			}
			f.rate = r + float64(k)
		}
	}
	probeSink += probeRecords[0].rate
	return time.Since(t).Seconds()
}
