package fabric

import "repro/internal/sim"

// Conduit is a LogGP-style parameter set for one interconnect, calibrated
// against the microbenchmark levels reported in the thesis (Figure 4.2 for
// QDR InfiniBand; the node diagrams of Figures 2.1/2.2 for link rates; the
// UTS Ethernet-vs-InfiniBand gap of Figure 3.3).
type Conduit struct {
	Name string

	// Latency is the one-way wire + switch latency.
	Latency sim.Duration
	// SendOverhead is the CPU time the initiator spends per message.
	SendOverhead sim.Duration
	// RecvOverhead is the CPU time the target runtime spends per message.
	RecvOverhead sim.Duration
	// MsgGap is the per-message occupancy of a connection's injection
	// port. On a connection shared by many threads (the pthreads backend)
	// this serializes message initiation.
	MsgGap sim.Duration

	// ConnBW is the bandwidth one connection can extract (bytes/s).
	ConnBW float64
	// NICBW is the node's aggregate NIC bandwidth per direction (bytes/s).
	// Multiple connections on one node can together reach NICBW.
	NICBW float64

	// LoopbackBW and LoopbackLatency model intra-node transfers that go
	// through the network API because neither PSHM nor pthreads shared
	// memory is available (the "base" runtime configuration in Fig 3.4).
	LoopbackBW      float64
	LoopbackLatency sim.Duration

	// NICBeta is the NIC's congestion coefficient: effective NIC goodput
	// with n concurrent in-flight streams is NICBW/(1+NICBeta*(n-1)).
	// This reproduces the Figure 4.5 observation that the all-to-all
	// stops scaling past ~2 communicating contexts per node.
	NICBeta float64

	// PinRate models the bounce-buffer copy / memory-registration work a
	// shared (pthreads) connection performs while holding the network
	// lock, serializing injection at this byte rate (bytes/s).
	PinRate float64
}

// ExpectXfer estimates the fault-free completion time of a transfer of
// the given byte volume over one connection: a round trip plus the
// streaming time. Retry deadlines add it to every attempt, so big
// payloads on slow conduits are not declared lost while still streaming.
func (c *Conduit) ExpectXfer(bytes int64) sim.Duration {
	return 2*c.Latency + sim.TransferTime(bytes, c.ConnBW)
}

// QDRInfiniBand models Lehman's Mellanox ConnectX QDR fabric: ~2.4 GB/s
// unidirectional point-to-point (Figure 2.2), single connection saturating
// ~1.5 GB/s, small-message round trips in the 4–5 us range.
func QDRInfiniBand() Conduit {
	return Conduit{
		Name:            "ibv-qdr",
		Latency:         1600 * sim.Nanosecond,
		SendOverhead:    400 * sim.Nanosecond,
		RecvOverhead:    400 * sim.Nanosecond,
		MsgGap:          250 * sim.Nanosecond,
		ConnBW:          1.5e9,
		NICBW:           2.5e9,
		LoopbackBW:      0.9e9,
		LoopbackLatency: 800 * sim.Nanosecond,
		NICBeta:         0.003,
		PinRate:         0.8e9,
	}
}

// DDRInfiniBand models Pyramid's Mellanox DDR fabric: ~1.5 GB/s
// unidirectional point-to-point (Figure 2.1).
func DDRInfiniBand() Conduit {
	return Conduit{
		Name:            "ibv-ddr",
		Latency:         1400 * sim.Nanosecond,
		SendOverhead:    500 * sim.Nanosecond,
		RecvOverhead:    500 * sim.Nanosecond,
		MsgGap:          350 * sim.Nanosecond,
		ConnBW:          1.1e9,
		NICBW:           1.5e9,
		LoopbackBW:      0.8e9,
		LoopbackLatency: 1 * sim.Microsecond,
		NICBeta:         0.004,
		PinRate:         0.7e9,
	}
}

// GigabitEthernet models Pyramid's GigE management network used for the
// UTS Ethernet runs: ~118 MB/s on the wire, tens of microseconds latency,
// high per-message CPU cost (kernel TCP path).
func GigabitEthernet() Conduit {
	return Conduit{
		Name:            "gige",
		Latency:         25 * sim.Microsecond,
		SendOverhead:    3 * sim.Microsecond,
		RecvOverhead:    3 * sim.Microsecond,
		MsgGap:          2 * sim.Microsecond,
		ConnBW:          118e6,
		NICBW:           118e6,
		LoopbackBW:      0.5e9,
		LoopbackLatency: 5 * sim.Microsecond,
		NICBeta:         0.008, // kernel TCP stack thrashes hard under fan-out
		PinRate:         0.4e9,
	}
}

// ConduitByName resolves a conduit preset.
func ConduitByName(name string) (Conduit, bool) {
	switch name {
	case "ibv-qdr":
		return QDRInfiniBand(), true
	case "ibv-ddr":
		return DDRInfiniBand(), true
	case "gige", "ethernet", "udp":
		return GigabitEthernet(), true
	}
	return Conduit{}, false
}

// Conduits lists the available conduit preset names.
func Conduits() []string { return []string{"ibv-qdr", "ibv-ddr", "gige"} }
