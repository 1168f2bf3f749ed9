package uts

import (
	"fmt"
	"math"
	"sync" //upcvet:rawgo -- host-side tree-table cache, shared across sweep workers; not simulated concurrency
)

// treeTable is a tree's shape, derived once through the SHA-1 chain and
// stored breadth-first: node 0 is the root, and the children of node i
// are the contiguous indices first[i]..first[i+1]-1, in child order. The
// SHA-1 states themselves are dropped once their children are known, so
// the table costs 4 bytes a node. It is immutable once built and shared
// by every run of the same TreeSpec.
type treeTable struct {
	// first stores the n+1 entries of first[] above in chunks of
	// chunkLen+1, each chunk opening with its predecessor's last entry, so
	// both bounds of a node's range sit in one chunk. Fixed-size chunks
	// keep the build from copying a growing slice: its memory stays one
	// table plus two frontiers.
	first    [][]uint32
	nodes    int64
	maxDepth uint32
}

const (
	chunkBits = 16
	chunkLen  = 1 << chunkBits
)

// children reports the index range [lo, hi) of node i's children.
func (tt *treeTable) children(i uint32) (lo, hi uint32) {
	c := tt.first[i>>chunkBits]
	j := i & (chunkLen - 1)
	return c[j], c[j+1]
}

// add appends the next entry of first.
func (tt *treeTable) add(v uint32) {
	last := len(tt.first) - 1
	if last < 0 || len(tt.first[last]) == chunkLen+1 {
		c := make([]uint32, 0, chunkLen+1)
		if last >= 0 {
			c = append(c, tt.first[last][chunkLen])
		}
		tt.first = append(tt.first, c)
		last++
	}
	tt.first[last] = append(tt.first[last], v)
}

// buildTable derives s's tree level by level through Root, Child and
// NumChildren, holding only the current and next frontiers' SHA-1 states.
// A tree too large for uint32 indices is an error.
func buildTable(s TreeSpec) (*treeTable, error) {
	tt := &treeTable{}
	end := uint64(1) // one past the last index handed out; the root is 0
	tt.add(uint32(end))
	level := []Node{s.Root()}
	var next []Node
	for len(level) > 0 {
		tt.maxDepth = level[0].Depth
		for _, n := range level {
			k := s.NumChildren(n)
			end += uint64(k)
			if end > math.MaxUint32 {
				return nil, fmt.Errorf("uts: tree exceeds %d nodes", uint32(math.MaxUint32))
			}
			tt.add(uint32(end))
			for i := 0; i < k; i++ {
				next = append(next, Child(n, i))
			}
		}
		level, next = next, level[:0]
	}
	tt.nodes = int64(end)
	return tt, nil
}

// tableCache maps each TreeSpec to its table, built at most once. Each
// entry carries its own once, so concurrent runs of one tree share a
// single build while runs of different trees never wait on each other.
type tableCache struct{ m sync.Map } // TreeSpec -> *tableEntry

type tableEntry struct {
	once sync.Once
	tt   *treeTable
	err  error
}

// get returns s's table, calling build only on the first request for s.
func (c *tableCache) get(s TreeSpec, build func(TreeSpec) (*treeTable, error)) (*treeTable, error) {
	v, _ := c.m.LoadOrStore(s, new(tableEntry))
	e := v.(*tableEntry)
	e.once.Do(func() { e.tt, e.err = build(s) })
	return e.tt, e.err
}

// tables is the process-wide cache: each tree is hashed once per process.
var tables tableCache
