// Package topo models the hardware topology of a cluster of SMP nodes:
// cluster → node → socket (ccNUMA domain) → core → SMT thread. It carries
// the calibrated machine rates (memory bandwidth, NUMA factor, core
// compute rates, shared-pointer translation cost) that the cost model in
// the fabric and application layers charges against, and it provides the
// hwloc-like placement and distance queries that the paper's thread-group
// techniques rely on.
package topo

import "fmt"

// Machine describes a homogeneous cluster.
type Machine struct {
	Name string

	// Structure.
	Nodes          int // compute nodes in the cluster
	SocketsPerNode int // ccNUMA domains per node
	CoresPerSocket int
	ThreadsPerCore int // SMT ways (1 = no SMT)

	// Calibrated rates.
	ClockGHz      float64 // core clock
	FlopsPerCore  float64 // sustained flop/s per core for FFT-like kernels
	MemBWSocket   float64 // bytes/s STREAM-like bandwidth per socket
	NUMAFactor    float64 // cross-socket access slowdown multiplier (>1)
	SMTThroughput float64 // combined throughput of a full SMT core vs one thread (e.g. 1.2)
	PtrXlate      float64 // seconds per shared-pointer translation (element access)

	// Shared-pointer translation model (see internal/upc): a fine-grained
	// shared access decodes (thread, block, offset) from the pointer. The
	// full software decode costs PtrXlate seconds; with a translation
	// cache, an access whose (array, block) pair is cached re-derives only
	// the offset; with hardware assist the decode retires in one core
	// cycle — effectively free at simulation resolution, the Serres-style
	// hardware-assisted translation regime.
	XlateAssist     bool // hardware-assisted translation (cost ≈ one cycle)
	XlateCacheLines int  // per-thread translation-cache entries; 0 = no cache

	// DefaultConduit names the network conduit used unless overridden
	// (resolved by the fabric package).
	DefaultConduit string
}

// CoresPerNode reports physical cores per node.
func (m *Machine) CoresPerNode() int { return m.SocketsPerNode * m.CoresPerSocket }

// HWThreadsPerNode reports hardware thread slots per node (cores × SMT).
func (m *Machine) HWThreadsPerNode() int { return m.CoresPerNode() * m.ThreadsPerCore }

// TotalCores reports physical cores in the whole machine.
func (m *Machine) TotalCores() int { return m.Nodes * m.CoresPerNode() }

// Validate reports a descriptive error if the machine is malformed.
func (m *Machine) Validate() error {
	switch {
	case m.Nodes <= 0:
		return fmt.Errorf("topo: %s: Nodes = %d", m.Name, m.Nodes)
	case m.SocketsPerNode <= 0:
		return fmt.Errorf("topo: %s: SocketsPerNode = %d", m.Name, m.SocketsPerNode)
	case m.CoresPerSocket <= 0:
		return fmt.Errorf("topo: %s: CoresPerSocket = %d", m.Name, m.CoresPerSocket)
	case m.ThreadsPerCore <= 0:
		return fmt.Errorf("topo: %s: ThreadsPerCore = %d", m.Name, m.ThreadsPerCore)
	case m.MemBWSocket <= 0:
		return fmt.Errorf("topo: %s: MemBWSocket = %g", m.Name, m.MemBWSocket)
	case m.NUMAFactor < 1:
		return fmt.Errorf("topo: %s: NUMAFactor = %g (must be >= 1)", m.Name, m.NUMAFactor)
	case m.SMTThroughput < 1:
		return fmt.Errorf("topo: %s: SMTThroughput = %g (must be >= 1)", m.Name, m.SMTThroughput)
	case m.XlateCacheLines < 0:
		return fmt.Errorf("topo: %s: XlateCacheLines = %d", m.Name, m.XlateCacheLines)
	}
	return nil
}

// Place locates one hardware thread slot in the cluster.
type Place struct {
	Node   int // cluster node
	Socket int // socket within the node
	Core   int // core within the socket
	SMT    int // SMT slot within the core (0 for the primary thread)
}

// GlobalCore reports the machine-wide physical core index of the place.
func (p Place) GlobalCore(m *Machine) int {
	return (p.Node*m.SocketsPerNode+p.Socket)*m.CoresPerSocket + p.Core
}

// String formats the place as node/socket/core[.smt].
func (p Place) String() string {
	if p.SMT == 0 {
		return fmt.Sprintf("n%d/s%d/c%d", p.Node, p.Socket, p.Core)
	}
	return fmt.Sprintf("n%d/s%d/c%d.%d", p.Node, p.Socket, p.Core, p.SMT)
}

// Level classifies the topological distance between two places, from
// closest to farthest. It is the information the paper's thread-layout
// query exposes to applications.
type Level int

const (
	// LevelSelf: the same hardware thread slot.
	LevelSelf Level = iota
	// LevelSMT: sibling SMT threads on one core.
	LevelSMT
	// LevelSocket: same socket (shared L3, same ccNUMA domain).
	LevelSocket
	// LevelNode: same node, different socket (cross-QPI/HT, cc shared memory).
	LevelNode
	// LevelRemote: different nodes (network).
	LevelRemote
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelSelf:
		return "self"
	case LevelSMT:
		return "smt"
	case LevelSocket:
		return "socket"
	case LevelNode:
		return "node"
	case LevelRemote:
		return "remote"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Distance reports the topological relationship of two places.
func Distance(a, b Place) Level {
	switch {
	case a.Node != b.Node:
		return LevelRemote
	case a.Socket != b.Socket:
		return LevelNode
	case a.Core != b.Core:
		return LevelSocket
	case a.SMT != b.SMT:
		return LevelSMT
	default:
		return LevelSelf
	}
}

// SameNode reports whether both places share a node (hence shared memory).
func SameNode(a, b Place) bool { return a.Node == b.Node }
