// Package uts implements the Unbalanced Tree Search benchmark of Section
// 3.3.2: exhaustive traversal of an implicitly defined random tree whose
// shape is derived from SHA-1 chains (so any traversal order visits the
// same tree), parallelized over UPC threads with steal-stacks in the
// shared address space, and three stealing strategies — the baseline
// round-robin probing of the original UPC implementation, the
// locality-conscious local-first strategy, and local-first plus rapid
// work diffusion (Figure 3.2).
package uts

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"
)

// TreeSpec defines a binomial tree instance: the root has RootChildren
// children; every other node has M children with probability Q and none
// otherwise. The paper's experiments use a 4.1-million-node binomial
// tree.
type TreeSpec struct {
	RootChildren int     // b0
	Q            float64 // branching probability
	M            int     // fan-out
	Seed         uint32
}

// Paper4M approximates the thesis's 4.1-million-node binomial tree (UTS
// T3-like parameters: b0=2000, q=0.124875, m=8; this seed realizes 4.35
// million nodes under our SHA-1 chain).
func Paper4M() TreeSpec {
	return TreeSpec{RootChildren: 2000, Q: 0.124875, M: 8, Seed: 1}
}

// Small returns a tree for tests and quick runs: approx/100 root
// children, each rooting a subcritical binomial subtree (q·m = 0.99,
// expected size 100 nodes), deep enough to exercise work stealing like
// the near-critical paper tree. approx is the expected node count, but
// subtree sizes are heavy-tailed, so realizations mostly fall well below
// it: Small(400000) realizes 235,113 nodes with max depth 187, and
// Small(20000) 6,297 nodes.
func Small(approx int) TreeSpec {
	b0 := approx / 100
	if b0 < 1 {
		b0 = 1
	}
	return TreeSpec{RootChildren: b0, Q: 0.12375, M: 8, Seed: 7}
}

// Node is one tree node's interior state: the SHA-1 chain value plus its
// depth (20 + 4 bytes, matching the UTS descriptor size).
type Node struct {
	State [20]byte
	Depth uint32
}

// NodeBytes is the descriptor size used for communication-cost accounting.
const NodeBytes = 24

// Root builds the root node of the tree.
func (s TreeSpec) Root() Node {
	var seed [24]byte
	binary.BigEndian.PutUint32(seed[20:], s.Seed)
	return Node{State: sha1.Sum(seed[:])}
}

// Child derives the i-th child of n; the SHA-1 chain makes the tree shape
// independent of traversal order.
func Child(n Node, i int) Node {
	var buf [24]byte
	copy(buf[:20], n.State[:])
	binary.BigEndian.PutUint32(buf[20:], uint32(i))
	return Node{State: sha1.Sum(buf[:]), Depth: n.Depth + 1}
}

// rand01 extracts the node's uniform variate in [0,1).
func rand01(n Node) float64 {
	return float64(binary.BigEndian.Uint32(n.State[:4])) / (1 << 32)
}

// NumChildren reports the node's fan-out under the spec.
func (s TreeSpec) NumChildren(n Node) int {
	if n.Depth == 0 {
		return s.RootChildren
	}
	if rand01(n) < s.Q {
		return s.M
	}
	return 0
}

// CountSequential walks the whole tree depth-first on one goroutine and
// returns the exact node count (the reference for parallel correctness)
// along with the maximum depth reached.
func (s TreeSpec) CountSequential() (nodes int64, maxDepth uint32) {
	stack := []Node{s.Root()}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nodes++
		if n.Depth > maxDepth {
			maxDepth = n.Depth
		}
		for i := s.NumChildren(n) - 1; i >= 0; i-- {
			stack = append(stack, Child(n, i))
		}
	}
	return nodes, maxDepth
}

// Validate reports an error for nonsensical or supercritical specs.
func (s TreeSpec) Validate() error {
	// !(q >= 0) also rejects NaN, which no comparison would catch below
	// and which would never match its own tree-table cache key.
	if s.RootChildren < 1 || s.M < 1 || !(s.Q >= 0) || s.Q*float64(s.M) >= 1 {
		return fmt.Errorf("uts: binomial spec b0=%d q=%g m=%d is invalid or supercritical",
			s.RootChildren, s.Q, s.M)
	}
	return nil
}
