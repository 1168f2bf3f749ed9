// Package ra implements a RandomAccess (GUPS-style) benchmark, the other
// application class the thesis names as suited to thread grouping
// ("...the thread group approach would fit better in these cases, such as
// UTS, Random Access, etc." — Section 4.4). A distributed table receives
// XOR updates at pseudo-random global indices. Three variants form the
// ablation:
//
//   - Fine: every update is an individual one-sided 8-byte operation — the
//     natural UPC expression, dominated by per-message overheads.
//   - Aggregated: updates are bucketed per destination *thread* and
//     shipped in bulk (software aggregation).
//   - GroupAggregated: updates are bucketed per destination *node*, the
//     node's thread group; the receiving member scatters them to its node
//     peers through the privatized pointer table — hierarchical
//     aggregation with P/perNode times fewer buckets.
//
// All variants run real XOR updates; results are verified against a
// sequential reference (XOR is order-independent).
package ra

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/upc"
)

// Variant selects the update strategy.
type Variant int

const (
	// Fine issues one 8-byte one-sided update per element.
	Fine Variant = iota
	// Aggregated buckets updates per destination thread.
	Aggregated
	// GroupAggregated buckets updates per destination node (thread
	// group), scattering locally through cast pointers.
	GroupAggregated
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case Aggregated:
		return "aggregated"
	case GroupAggregated:
		return "group-aggregated"
	}
	return "fine-grained"
}

// Variants lists the ablation in order.
func Variants() []Variant { return []Variant{Fine, Aggregated, GroupAggregated} }

// Aggregation bucket (Aggregated, GroupAggregated) and outstanding
// one-sided ops (Fine), in updates.
const (
	bucketSize = 512
	fineWindow = 64
)

// Config parameterizes one RandomAccess run.
type Config struct {
	Machine     *topo.Machine
	ConduitName string // "" = machine default
	Threads     int
	PerNode     int
	TableSize   int // total table elements (power of two recommended)
	Updates     int // updates per thread
	Variant     Variant
	Seed        int64
	// Tracer, when non-nil, receives the run's trace events in addition
	// to any process-default tracer (see internal/trace).
	Tracer trace.Tracer
}

// Result summarizes one run.
type Result struct {
	Elapsed sim.Duration
	// GUPS is giga-updates per second, the HPCC metric.
	GUPS float64
	// Messages is the number of one-sided operations issued.
	Messages int64
}

// update is one table mutation.
type update struct {
	index int
	value uint64
}

// sequence generates thread t's deterministic update stream (a simple
// SplitMix-style generator; the HPCC polynomial is not needed for shape).
func sequence(t, n, tableSize int, seed int64) []update {
	out := make([]update, n)
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(t+1)*0xBF58476D1CE4E5B9
	for i := range out {
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
		out[i] = update{index: int(x % uint64(tableSize)), value: x}
	}
	return out
}

// Reference computes the sequential result of all threads' updates.
func Reference(cfg Config) []uint64 {
	table := make([]uint64, cfg.TableSize)
	for t := 0; t < cfg.Threads; t++ {
		for _, u := range sequence(t, cfg.Updates, cfg.TableSize, cfg.Seed) {
			table[u.index] ^= u.value
		}
	}
	return table
}

// Run executes the benchmark and verifies the final table against the
// sequential reference.
func Run(cfg Config) (Result, error) {
	if cfg.Machine == nil {
		cfg.Machine = topo.Lehman()
	}
	if cfg.Threads <= 0 || cfg.PerNode <= 0 || cfg.TableSize <= 0 || cfg.Updates <= 0 {
		return Result{}, fmt.Errorf("ra: invalid config %+v", cfg)
	}
	ucfg := upc.Config{
		Machine:        cfg.Machine,
		Conduit:        cfg.ConduitName,
		Threads:        cfg.Threads,
		ThreadsPerNode: cfg.PerNode,
		Backend:        upc.Processes,
		PSHM:           true,
		Seed:           cfg.Seed,
		Tracer:         cfg.Tracer,
	}
	var elapsed sim.Duration
	var messages int64
	var tableRef *upc.Shared[uint64]
	_, err := upc.Run(ucfg, func(t *upc.Thread) {
		table := upc.Alloc[uint64](t, cfg.TableSize, 8, upc.BlockedLayout(cfg.TableSize, t.N))
		tableRef = table
		t.Barrier()
		start := t.Now()
		ups := sequence(t.ID, cfg.Updates, cfg.TableSize, cfg.Seed)
		var n int64
		switch cfg.Variant {
		case Fine:
			n = runFine(t, table, ups)
		case Aggregated:
			n = runAggregated(t, table, ups, false)
		case GroupAggregated:
			n = runAggregated(t, table, ups, true)
		}
		t.Barrier()
		if t.ID == 0 {
			elapsed = t.Now() - start
		}
		messages += n
	})
	if err != nil {
		return Result{}, err
	}
	// Verify against the sequential reference.
	want := Reference(cfg)
	for i, w := range want {
		owner, local := tableRef.Owner(i), tableRef.LocalIndex(i)
		if got := tableRef.Partition(owner)[local]; got != w {
			return Result{}, fmt.Errorf("ra: %v: table[%d] = %#x, want %#x",
				cfg.Variant, i, got, w)
		}
	}
	totalUpdates := float64(cfg.Threads) * float64(cfg.Updates)
	return Result{
		Elapsed:  elapsed,
		GUPS:     totalUpdates / elapsed.Seconds() / 1e9,
		Messages: messages,
	}, nil
}

// runFine issues one windowed 8-byte one-sided update per element.
func runFine(t *upc.Thread, table *upc.Shared[uint64], ups []update) int64 {
	var pending []*upc.Handle
	var n int64
	for _, u := range ups {
		owner, local := table.Owner(u.index), table.LocalIndex(u.index)
		if seg := table.Cast(t, owner); seg != nil {
			// Same node: direct read-modify-write through the cast
			// pointer (one translation + a cache-line touch).
			t.ChargeXlate(1)
			t.MemStreamFrom(8, t.Runtime().PlaceOf(owner).Socket)
			seg[local] ^= u.value
			continue
		}
		if len(pending) >= fineWindow {
			t.WaitSync(pending[0])
			pending = pending[1:]
		}
		seg := table.Partition(owner)
		v := u.value
		li := local
		pending = append(pending, upc.ApplyAsync(t, owner, 8, func() {
			seg[li] ^= v
		}))
		n++
	}
	t.WaitAll(pending)
	return n
}

// runAggregated buckets updates per destination thread, or per destination
// node when grouped, shipping full buckets as bulk one-sided transfers
// whose remote handler applies the XORs.
func runAggregated(t *upc.Thread, table *upc.Shared[uint64], ups []update, grouped bool) int64 {
	rt := t.Runtime()
	perNode := rt.Cfg.ThreadsPerNode
	// Destination key: thread id, or node representative under grouping.
	keyOf := func(owner int) int {
		if !grouped {
			return owner
		}
		// Route the node bucket to the member with the same node-local
		// rank as this thread (spreading receive work across the group).
		node := rt.PlaceOf(owner).Node
		rep := node*perNode + t.ID%perNode
		if rep >= t.N {
			rep = node * perNode
		}
		return rep
	}
	buckets := map[int][]update{}
	var pending []*upc.Handle
	var n int64
	flush := func(key int) {
		b := buckets[key]
		if len(b) == 0 {
			return
		}
		buckets[key] = nil
		snap := append([]update(nil), b...)
		n++
		pending = append(pending, upc.ApplyAsync(t, key, int64(len(snap))*16, func() {
			for _, u := range snap {
				owner, local := table.Owner(u.index), table.LocalIndex(u.index)
				// Under grouping the receiver scatters to node peers
				// through the cast table; both cases are direct memory at
				// the receiving node.
				table.Partition(owner)[local] ^= u.value
			}
		}))
	}
	for _, u := range ups {
		owner := table.Owner(u.index)
		if seg := table.Cast(t, owner); seg != nil {
			t.ChargeXlate(1)
			t.MemStreamFrom(8, rt.PlaceOf(owner).Socket)
			seg[table.LocalIndex(u.index)] ^= u.value
			continue
		}
		key := keyOf(owner)
		buckets[key] = append(buckets[key], u)
		if len(buckets[key]) >= bucketSize {
			flush(key)
		}
	}
	// Flush the residual buckets in key order: ranging the map here
	// would issue the final network sends in randomized order and make
	// the event stream differ between same-seed runs.
	keys := make([]int, 0, len(buckets))
	for key := range buckets {
		keys = append(keys, key)
	}
	sort.Ints(keys)
	for _, key := range keys {
		flush(key)
	}
	t.WaitAll(pending)
	return n
}
