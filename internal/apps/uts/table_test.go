package uts

import (
	"sync"        //upcvet:rawgo -- host goroutines racing on the tree-table cache
	"sync/atomic" //upcvet:rawgo -- counts the cache's builds
	"testing"
)

// TestTreeTableMatchesSequential checks the breadth-first table against
// the independent depth-first SHA-1 walk, and that the child ranges
// partition the non-root indices: every index in 1..n-1 is exactly one
// node's child.
func TestTreeTableMatchesSequential(t *testing.T) {
	var specs []TreeSpec
	for _, seed := range []uint32{7, 21, 25, 45} {
		s := Small(400000)
		s.Seed = seed
		specs = append(specs, s)
	}
	for _, s := range specs {
		tt, err := buildTable(s)
		if err != nil {
			t.Fatal(err)
		}
		nodes, depth := s.CountSequential()
		if tt.nodes != nodes || tt.maxDepth != depth {
			t.Errorf("%+v: table has %d nodes, depth %d; sequential walk %d, %d",
				s, tt.nodes, tt.maxDepth, nodes, depth)
		}
		parents := make([]int, tt.nodes)
		for i := uint32(0); int64(i) < tt.nodes; i++ {
			lo, hi := tt.children(i)
			if lo > hi || int64(hi) > tt.nodes || lo <= i {
				t.Fatalf("%+v: node %d has child range [%d, %d)", s, i, lo, hi)
			}
			for c := lo; c < hi; c++ {
				parents[c]++
			}
		}
		if parents[0] != 0 {
			t.Errorf("%+v: the root is some node's child", s)
		}
		for c := 1; c < len(parents); c++ {
			if parents[c] != 1 {
				t.Fatalf("%+v: index %d is a child of %d nodes", s, c, parents[c])
			}
		}
	}
}

// TestTreeTableBuiltOnce asks for one spec's table from many goroutines
// at once: all get the same table, from a single build.
func TestTreeTableBuiltOnce(t *testing.T) {
	var c tableCache
	var builds atomic.Int32
	build := func(s TreeSpec) (*treeTable, error) {
		builds.Add(1)
		return buildTable(s)
	}
	spec := Small(20000)
	got := make([]*treeTable, 16)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() { //upcvet:rawgo -- concurrent host callers of the cache, as sweep workers are
			defer wg.Done()
			tt, err := c.get(spec, build)
			if err != nil {
				t.Error(err)
			}
			got[i] = tt
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("%d builds, want 1", n)
	}
	for i, tt := range got {
		if tt == nil || tt != got[0] {
			t.Fatalf("goroutine %d got table %p, goroutine 0 got %p", i, tt, got[0])
		}
	}
	a, _ := tables.get(spec, buildTable)
	b, _ := tables.get(spec, buildTable)
	if a != b {
		t.Error("the process-wide cache built the table twice")
	}
}

// BenchmarkTreeTable times an uncached build of Small(400000).
func BenchmarkTreeTable(b *testing.B) {
	spec := Small(400000)
	for b.Loop() {
		if _, err := buildTable(spec); err != nil {
			b.Fatal(err)
		}
	}
}
