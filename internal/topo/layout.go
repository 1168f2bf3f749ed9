package topo

import "fmt"

// Binding selects how execution contexts are pinned onto hardware slots
// within a node, mirroring the binding regimes the paper evaluates
// (numactl socket round-robin and core pinning). Unbound sub-threads are
// modelled by internal/subthread's Bound=false teams (ScatterPlaces), not
// by a binding.
type Binding int

const (
	// BindSocketRR pins contexts round-robin across sockets, then cores
	// within a socket — the paper's default ("UPC processes are cyclically
	// pinned to independent ccNUMA nodes using numactl").
	BindSocketRR Binding = iota
	// BindCoreBlocked fills socket 0's cores first, then socket 1, etc.
	BindCoreBlocked
)

// String names the binding policy.
func (b Binding) String() string {
	switch b {
	case BindSocketRR:
		return "socket-rr"
	case BindCoreBlocked:
		return "core-blocked"
	}
	return fmt.Sprintf("Binding(%d)", int(b))
}

// Layout assigns total execution contexts across the first
// ceil(total/perNode) nodes, perNode per node (blocked over nodes, which
// matches the default GASNet thread layout), and places each within its
// node per the binding policy. It returns one Place per context, indexed
// by context rank.
func (m *Machine) Layout(total, perNode int, b Binding) ([]Place, error) {
	if total <= 0 || perNode <= 0 {
		return nil, fmt.Errorf("topo: Layout(total=%d, perNode=%d): counts must be positive", total, perNode)
	}
	nodes := (total + perNode - 1) / perNode
	if nodes > m.Nodes {
		return nil, fmt.Errorf("topo: layout needs %d nodes but %s has %d", nodes, m.Name, m.Nodes)
	}
	if perNode > m.HWThreadsPerNode() {
		return nil, fmt.Errorf("topo: %d contexts per node exceeds %d hardware threads on %s",
			perNode, m.HWThreadsPerNode(), m.Name)
	}
	places := make([]Place, total)
	for t := 0; t < total; t++ {
		node := t / perNode
		local := t % perNode
		places[t] = m.placeInNode(node, local, b)
	}
	return places, nil
}

// placeInNode maps local context index r within a node to a slot.
func (m *Machine) placeInNode(node, r int, b Binding) Place {
	cores := m.CoresPerNode()
	switch b {
	case BindCoreBlocked:
		// Fill all cores of socket 0, then socket 1, ...; SMT slots last.
		core := r % cores
		smt := r / cores
		return Place{Node: node, Socket: core / m.CoresPerSocket, Core: core % m.CoresPerSocket, SMT: smt}
	default: // BindSocketRR
		// Alternate sockets: r=0 -> s0c0, r=1 -> s1c0, r=2 -> s0c1, ...
		primary := r % cores
		smt := r / cores
		socket := primary % m.SocketsPerNode
		core := primary / m.SocketsPerNode
		return Place{Node: node, Socket: socket, Core: core, SMT: smt}
	}
}

// SubPlaces enumerates hardware slots for n sub-threads spawned under a
// master pinned at base. Sub-threads inherit the master's affinity mask:
// they fill the master's socket (cores, then SMT slots) before spilling to
// the next socket of the same node. The master's own slot is index 0.
func (m *Machine) SubPlaces(base Place, n int) ([]Place, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topo: SubPlaces(n=%d): need at least one", n)
	}
	if n > m.HWThreadsPerNode() {
		return nil, fmt.Errorf("topo: %d sub-threads exceed %d hardware threads per node", n, m.HWThreadsPerNode())
	}
	out := make([]Place, 0, n)
	// Sub-threads inherit the master's affinity mask: exhaust the
	// master's socket completely (cores, then SMT slots) before spilling
	// to the next socket — the paper binds processes on sockets "to
	// prevent sub-threads going off the chip", which is why its 8×n
	// configurations use only one socket per node.
	for ds := 0; ds < m.SocketsPerNode && len(out) < n; ds++ {
		s := (base.Socket + ds) % m.SocketsPerNode
		for smt := 0; smt < m.ThreadsPerCore && len(out) < n; smt++ {
			for c := 0; c < m.CoresPerSocket && len(out) < n; c++ {
				core := c
				if s == base.Socket {
					core = (base.Core + c) % m.CoresPerSocket
				}
				out = append(out, Place{Node: base.Node, Socket: s, Core: core, SMT: smt})
			}
		}
	}
	return out, nil
}

// ScatterPlaces enumerates n hardware slots of one node in OS-scheduler
// order (round-robin across sockets), modeling *unbound* sub-threads that
// ignore their master's affinity mask.
func (m *Machine) ScatterPlaces(node, n int) ([]Place, error) {
	if n <= 0 || n > m.HWThreadsPerNode() {
		return nil, fmt.Errorf("topo: ScatterPlaces(n=%d) on a %d-slot node", n, m.HWThreadsPerNode())
	}
	out := make([]Place, n)
	for r := 0; r < n; r++ {
		out[r] = m.placeInNode(node, r, BindSocketRR)
	}
	return out, nil
}

// SameNodeRanks lists every rank in [0,total) that shares a node with
// rank, under a blocked layout with perNode contexts per node. This is the
// information the paper's runtime thread-layout query exposes ("which
// threads are relatively closer together than others").
func SameNodeRanks(rank, total, perNode int) []int {
	node := rank / perNode
	lo := node * perNode
	hi := lo + perNode
	if hi > total {
		hi = total
	}
	out := make([]int, 0, hi-lo)
	for r := lo; r < hi; r++ {
		out = append(out, r)
	}
	return out
}
