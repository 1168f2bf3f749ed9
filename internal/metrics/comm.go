package metrics

import (
	"sort"

	"repro/internal/trace"
)

// maxThreadCells caps the thread-granularity matrix detail exported in
// a manifest: the densest sweeps touch millions of thread pairs, and
// the manifest must stay reviewable. The cap keeps the lexicographically
// first cells (sorted by src, dst, class) and records how many were
// dropped, so truncation is explicit and deterministic.
const maxThreadCells = 4096

// commKey identifies one matrix cell: the packed endpoint quadruple
// plus the path class the transfer took.
type commKey struct {
	ep    int64
	class string
}

// commVal accumulates one cell.
type commVal struct {
	msgs  int64
	bytes int64
}

// CommMatrix aggregates CatComm instants into a communication matrix:
// messages and bytes per (source thread, destination thread) endpoint
// pair, classified by the path the configured runtime took (self /
// pshm / loopback / network). Endpoints follow the data: a get from
// thread 7 by thread 0 is a (7 -> 0) transfer.
type CommMatrix struct {
	cells map[commKey]*commVal
}

// NewCommMatrix returns an empty matrix.
func NewCommMatrix() *CommMatrix {
	return &CommMatrix{cells: map[commKey]*commVal{}}
}

// Record aggregates one CatComm event (Arg bytes, Arg2 packed
// endpoints, Aux path class).
func (m *CommMatrix) Record(e trace.Event) {
	k := commKey{ep: e.Arg2, class: e.Aux}
	c := m.cells[k]
	if c == nil {
		c = &commVal{}
		m.cells[k] = c
	}
	c.msgs++
	c.bytes += e.Arg
}

// Messages reports the total transfer count across all cells.
func (m *CommMatrix) Messages() int64 {
	var n int64
	for _, c := range m.cells {
		n += c.msgs
	}
	return n
}

// Bytes reports the total bytes moved across all cells.
func (m *CommMatrix) Bytes() int64 {
	var n int64
	for _, c := range m.cells {
		n += c.bytes
	}
	return n
}

// ClassMessages reports the transfer count in one path class.
func (m *CommMatrix) ClassMessages(class string) int64 {
	var n int64
	for k, c := range m.cells {
		if k.class == class {
			n += c.msgs
		}
	}
	return n
}

// ClassBytes reports the bytes moved in one path class.
func (m *CommMatrix) ClassBytes(class string) int64 {
	var n int64
	for k, c := range m.cells {
		if k.class == class {
			n += c.bytes
		}
	}
	return n
}

// ThreadCell is one thread-granularity matrix cell.
type ThreadCell struct {
	Src      int    `json:"src"`
	Dst      int    `json:"dst"`
	Class    string `json:"class"`
	Messages int64  `json:"msgs"`
	Bytes    int64  `json:"bytes"`
}

// Threads exports the thread-granularity matrix, sorted by (src, dst,
// class). Cells that differ only in node coordinates merge: across a
// sweep the same thread pair may land on different machine shapes, and
// node placement is not part of thread granularity. The merge also
// makes the sort key unique, which the deterministic export depends on
// (with duplicate keys, unstable-sort tie order would leak map order).
func (m *CommMatrix) Threads() []ThreadCell {
	agg := map[commKey]*commVal{}
	//upcvet:maporder -- Pack/UnpackEndpoints are pure bit packing; agg accumulates commutatively
	for k, c := range m.cells {
		st, dt, _, _ := trace.UnpackEndpoints(k.ep)
		tk := commKey{ep: trace.PackEndpoints(st, dt, 0, 0), class: k.class}
		a := agg[tk]
		if a == nil {
			a = &commVal{}
			agg[tk] = a
		}
		a.msgs += c.msgs
		a.bytes += c.bytes
	}
	out := make([]ThreadCell, 0, len(agg))
	//upcvet:maporder -- UnpackEndpoints is pure bit decoding; out is sorted below
	for k, c := range agg {
		src, dst, _, _ := trace.UnpackEndpoints(k.ep)
		out = append(out, ThreadCell{Src: src, Dst: dst, Class: k.class, Messages: c.msgs, Bytes: c.bytes})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.Class < b.Class
	})
	return out
}

// NodeCell is one node-granularity matrix cell.
type NodeCell struct {
	Src      int    `json:"src"`
	Dst      int    `json:"dst"`
	Class    string `json:"class"`
	Messages int64  `json:"msgs"`
	Bytes    int64  `json:"bytes"`
}

// Nodes exports the matrix aggregated to node granularity, sorted by
// (src node, dst node, class).
func (m *CommMatrix) Nodes() []NodeCell {
	agg := map[commKey]*commVal{}
	//upcvet:maporder -- Pack/UnpackEndpoints are pure bit packing; agg accumulates commutatively
	for k, c := range m.cells {
		_, _, sn, dn := trace.UnpackEndpoints(k.ep)
		nk := commKey{ep: trace.PackEndpoints(0, 0, sn, dn), class: k.class}
		a := agg[nk]
		if a == nil {
			a = &commVal{}
			agg[nk] = a
		}
		a.msgs += c.msgs
		a.bytes += c.bytes
	}
	out := make([]NodeCell, 0, len(agg))
	//upcvet:maporder -- UnpackEndpoints is pure bit decoding; out is sorted below
	for k, c := range agg {
		_, _, sn, dn := trace.UnpackEndpoints(k.ep)
		out = append(out, NodeCell{Src: sn, Dst: dn, Class: k.class, Messages: c.msgs, Bytes: c.bytes})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.Class < b.Class
	})
	return out
}

// ClassTotal is the per-path-class rollup of the matrix.
type ClassTotal struct {
	Class    string `json:"class"`
	Messages int64  `json:"msgs"`
	Bytes    int64  `json:"bytes"`
}

// Classes exports per-class totals, sorted by class name.
func (m *CommMatrix) Classes() []ClassTotal {
	agg := map[string]*commVal{}
	for k, c := range m.cells {
		a := agg[k.class]
		if a == nil {
			a = &commVal{}
			agg[k.class] = a
		}
		a.msgs += c.msgs
		a.bytes += c.bytes
	}
	names := make([]string, 0, len(agg))
	for k := range agg {
		names = append(names, k)
	}
	sort.Strings(names)
	out := make([]ClassTotal, 0, len(names))
	for _, n := range names {
		out = append(out, ClassTotal{Class: n, Messages: agg[n].msgs, Bytes: agg[n].bytes})
	}
	return out
}

// CommExport is the manifest form of the matrix: class rollups and the
// node-granularity matrix always; thread-granularity detail up to
// maxThreadCells cells, with the overflow counted explicitly.
type CommExport struct {
	Classes        []ClassTotal `json:"classes,omitempty"`
	Nodes          []NodeCell   `json:"nodes,omitempty"`
	Threads        []ThreadCell `json:"threads,omitempty"`
	ThreadsOmitted int          `json:"threads_omitted,omitempty"`
}

// Export builds the manifest form, or nil if no transfers were seen.
func (m *CommMatrix) Export() *CommExport {
	if len(m.cells) == 0 {
		return nil
	}
	e := &CommExport{Classes: m.Classes(), Nodes: m.Nodes(), Threads: m.Threads()}
	if len(e.Threads) > maxThreadCells {
		e.ThreadsOmitted = len(e.Threads) - maxThreadCells
		e.Threads = e.Threads[:maxThreadCells]
	}
	return e
}
