package uts

import (
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/upc"
)

// twoNodeConfig is a 2-node Pyramid shape: 8 threads, 4 per node, so
// the run has both intra-node (PSHM) and cross-node (conduit) traffic.
func twoNodeConfig(tr trace.Tracer) Config {
	return Config{
		Machine:  topo.Pyramid(),
		Threads:  8,
		PerNode:  4,
		Strategy: LocalRapid,
		Tree:     Small(20000),
		Seed:     3,
		Tracer:   tr,
	}
}

// TestCommMatrixClasses verifies the acceptance property of the comm
// matrix on a 2-node Pyramid UTS run: PSHM and network traffic are
// both present and separately classified, no transfer is misfiled
// (classes must agree with the endpoints' node topology), and — since
// uts runs the Processes backend with PSHM on — no loopback traffic
// appears.
func TestCommMatrixClasses(t *testing.T) {
	coll := metrics.NewCollection()
	if _, err := Run(twoNodeConfig(coll)); err != nil {
		t.Fatal(err)
	}
	m := coll.Manifest("uts-test", nil)
	if m.Comm == nil {
		t.Fatal("no communication matrix collected")
	}
	if b := coll.Comm.ClassBytes(trace.ClassPSHM); b == 0 {
		t.Error("no PSHM bytes on a 4-threads-per-node run")
	}
	if b := coll.Comm.ClassBytes(trace.ClassNetwork); b == 0 {
		t.Error("no network bytes on a 2-node run")
	}
	if b := coll.Comm.ClassBytes(trace.ClassLoopback); b != 0 {
		t.Errorf("loopback bytes = %d on a PSHM run, want 0", b)
	}
	perNode := 4
	for _, c := range m.Comm.Threads {
		srcNode, dstNode := c.Src/perNode, c.Dst/perNode
		switch c.Class {
		case trace.ClassSelf:
			if c.Src != c.Dst {
				t.Errorf("self cell %d->%d between distinct threads", c.Src, c.Dst)
			}
		case trace.ClassPSHM:
			if c.Src == c.Dst || srcNode != dstNode {
				t.Errorf("pshm cell %d->%d not intra-node", c.Src, c.Dst)
			}
		case trace.ClassNetwork:
			if srcNode == dstNode {
				t.Errorf("network cell %d->%d is intra-node", c.Src, c.Dst)
			}
		default:
			t.Errorf("unexpected class %q", c.Class)
		}
	}
	// The node-granularity aggregation must preserve the totals.
	var nodeBytes int64
	for _, c := range m.Comm.Nodes {
		nodeBytes += c.Bytes
	}
	if nodeBytes != coll.Comm.Bytes() {
		t.Errorf("node aggregation bytes = %d, matrix total = %d", nodeBytes, coll.Comm.Bytes())
	}
}

// TestLoopbackClass drives the one path uts itself never takes —
// same-node transfers without shared memory — and checks they classify
// as loopback, distinct from both PSHM and network.
func TestLoopbackClass(t *testing.T) {
	coll := metrics.NewCollection()
	ucfg := upc.Config{
		Machine:        topo.Pyramid(),
		Threads:        4,
		ThreadsPerNode: 2,
		Backend:        upc.Processes,
		PSHM:           false,
		Seed:           1,
		Tracer:         coll,
	}
	_, err := upc.Run(ucfg, func(th *upc.Thread) {
		if th.ID == 0 {
			th.PutBytes(1, 4096) // same node, no shared memory: loopback
			th.PutBytes(2, 2048) // other node: conduit
		}
		th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if b := coll.Comm.ClassBytes(trace.ClassLoopback); b != 4096 {
		t.Errorf("loopback bytes = %d, want 4096", b)
	}
	if b := coll.Comm.ClassBytes(trace.ClassNetwork); b != 2048 {
		t.Errorf("network bytes = %d, want 2048", b)
	}
	if b := coll.Comm.ClassBytes(trace.ClassPSHM); b != 0 {
		t.Errorf("pshm bytes = %d without shared memory, want 0", b)
	}
}

// TestStealPctFromMetricsAlone reproduces the Table 3.2 local-steal
// percentage from the -metrics manifest's counter namespace alone and
// requires exact agreement with the app's own counters. This is the
// guarantee that lets the metrics manifest stand in for the table's
// instrumentation.
func TestStealPctFromMetricsAlone(t *testing.T) {
	coll := metrics.NewCollection()
	r, err := Run(twoNodeConfig(coll))
	if err != nil {
		t.Fatal(err)
	}
	fromApp := r.LocalStealPct()
	if fromApp == 0 {
		t.Fatal("no local steals; scenario too small")
	}
	m := coll.Manifest("uts-test", nil)
	ms := m.Counters["counter.steals"]
	if ms == 0 {
		t.Fatal("manifest has no steals counter")
	}
	fromMetrics := 100 * float64(m.Counters["counter.steals_local"]) / float64(ms)
	if fromMetrics != fromApp {
		t.Errorf("metrics-fed steal pct %.6f != app %.6f", fromMetrics, fromApp)
	}
	if math.IsNaN(fromMetrics) {
		t.Error("metrics-fed steal pct is NaN")
	}

	// The profile must have seen the barrier phases of the run.
	if m.Profile == nil {
		t.Fatal("no profile collected")
	}
	found := false
	for _, ph := range m.Profile.Phases {
		if ph.Name == "upc/barrier" {
			found = true
		}
	}
	if !found {
		t.Error("profile lacks the upc/barrier phase")
	}
	// With a Collection attached the fabric emits link occupancy, so the
	// utilization section must cover the conduit and core links.
	if m.Util == nil || len(m.Util.Links) == 0 {
		t.Fatal("no utilization timelines collected")
	}
}
