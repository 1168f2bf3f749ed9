package mpi

import (
	"bytes"
	"fmt"
)

// hierThreshold is the per-destination slice size (bytes) at or below
// which Alltoall prefers the hierarchical node-aggregated algorithm. For
// larger slices the exchange is bandwidth-bound and the extra local copies
// of aggregation stop paying off, so pairwise wins — the same size-based
// algorithm switching tuned MPI libraries perform.
const hierThreshold = 4096

// Alltoall performs a complete exchange: rank r's send[d] lands in rank
// d's result[r] (MPI_Alltoall with per-destination byte slices). The
// algorithm is chosen the way a tuned MPI library would: the hierarchical
// node-aggregated algorithm when several ranks share a node (one wire
// message per node pair instead of ranksPerNode², spread across all of the
// node's connections), pairwise exchange otherwise.
func (c *Comm) Alltoall(send [][]byte) [][]byte {
	if len(send) != c.Size {
		panic(fmt.Sprintf("mpi: Alltoall with %d slices for %d ranks", len(send), c.Size))
	}
	slice := int64(len(send[0]))
	if uniformSizes(send) && c.hierarchical(slice) {
		return c.alltoallHierarchical(send, slice)
	}
	return c.alltoallPairwise(send, 0)
}

// AlltoallModel runs the complete-exchange communication pattern for
// uniform per-destination slices of the given byte size without carrying
// payloads — the model-mode form of Alltoall, with the same algorithm
// selection and the same messages.
func (c *Comm) AlltoallModel(slice int64) {
	if c.hierarchical(slice) {
		c.alltoallHierarchical(nil, slice)
		return
	}
	c.alltoallPairwise(nil, slice)
}

// AlltoallPairwise forces the naive pairwise-exchange algorithm (used by
// the ablation benchmarks).
func (c *Comm) AlltoallPairwise(send [][]byte) [][]byte {
	return c.alltoallPairwise(send, 0)
}

// hierarchical reports whether the tuned selection takes the
// node-aggregated algorithm for uniform slices of the given size.
func (c *Comm) hierarchical(slice int64) bool {
	w := c.w
	return w.Cfg.RanksPerNode > 1 && w.nodes > 1 && c.Size == w.nodes*w.Cfg.RanksPerNode &&
		slice <= hierThreshold
}

// alltoallPairwise exchanges with every other rank in turn. A nil send
// runs the pattern payload-free with slice bytes per message (model
// mode) and returns nil.
func (c *Comm) alltoallPairwise(send [][]byte, slice int64) [][]byte {
	out := selfSlot(send, c.Rank)
	c.ring(send, slice, out, 0, c.Size)
	return out
}

// selfSlot starts an all-to-all's result with the rank's own slice (nil
// in model mode).
func selfSlot(send [][]byte, rank int) [][]byte {
	if send == nil {
		return nil
	}
	out := make([][]byte, len(send))
	out[rank] = bytes.Clone(send[rank])
	return out
}

// ring exchanges pairwise with every other rank of base..base+n-1 in
// turn, storing the arrivals in out (when non-nil). In model mode (nil
// send) each message carries slice bytes payload-free.
func (c *Comm) ring(send [][]byte, slice int64, out [][]byte, base, n int) {
	i := c.Rank - base
	for step := 1; step < n; step++ {
		to := base + (i+step)%n
		from := base + (i-step+n)%n
		var data []byte
		size := slice
		if send != nil {
			data, size = bytes.Clone(send[to]), int64(len(send[to]))
		}
		in := c.sendrecv(to, size, data, from)
		if out != nil {
			out[from] = in
		}
	}
}

// alltoallHierarchical aggregates per node pair: each remote node nd is
// assigned to the local *handler* rank nd%per, which collects its node's
// contributions for nd over shared memory, exchanges one aggregated block
// with nd's corresponding handler on the wire, and hands each local rank
// its share of the arrival in one message. Wire traffic drops from per²
// messages per node pair to one, spread across all of the node's
// connections. A nil send runs the same messages payload-free (model
// mode) and returns nil.
func (c *Comm) alltoallHierarchical(send [][]byte, slice int64) [][]byte {
	w := c.w
	per := w.Cfg.RanksPerNode
	myNode := c.Rank / per
	li := c.Rank % per
	base := myNode * per
	blk := int64(per) * slice // one rank's slices for one node
	mine := func(nd int) bool { return nd != myNode && nd%per == li }

	// Node-local exchange goes directly over shared memory, pairwise.
	out := selfSlot(send, c.Rank)
	c.ring(send, slice, out, base, per)

	// Phase 1: ship each remote node's block — concat(send[dr]) over nd's
	// ranks, ascending — to its local handler, and collect the node's
	// blocks for the nodes this rank handles: agg[nd] holds local rank
	// lr's block for nd at offset lr*blk.
	var agg [][]byte
	if send != nil {
		agg = make([][]byte, w.nodes)
	}
	for nd := 0; nd < w.nodes; nd++ {
		switch {
		case nd == myNode:
		case !mine(nd):
			c.sendOwned(base+nd%per, blk, concat(send, nd*per, per))
		case agg != nil:
			agg[nd] = make([]byte, int64(per)*blk)
			copy(agg[nd][int64(li)*blk:], concat(send, nd*per, per))
		}
	}
	for lr := 0; lr < per; lr++ {
		if lr == li {
			continue
		}
		for nd := 0; nd < w.nodes; nd++ {
			if mine(nd) {
				in := c.Recv(base + lr)
				if agg != nil {
					copy(agg[nd][int64(lr)*blk:], in)
				}
			}
		}
	}

	// Phase 2: exchange aggregated node-pair blocks with the partner
	// handlers, non-blocking sends first to avoid ordering cycles. The
	// handler for node myNode on node nd is rank nd*per + myNode%per.
	for nd := 0; nd < w.nodes; nd++ {
		if mine(nd) {
			c.post(nd*per+myNode%per, int64(per)*blk, at(agg, nd))
		}
	}
	for nd := 0; nd < w.nodes; nd++ {
		if mine(nd) {
			in := c.Recv(nd*per + myNode%per)
			if agg != nil {
				agg[nd] = in
			}
		}
	}

	// Phase 3: an arrival from nd holds, for each sender on nd
	// (ascending), the slices for my node's ranks (ascending). Each
	// local rank gets the per slices meant for it in one message.
	for nd := 0; nd < w.nodes; nd++ {
		if !mine(nd) {
			continue
		}
		for dr := base; dr < base+per; dr++ {
			var share []byte
			if agg != nil {
				share = make([]byte, 0, blk)
				for s := 0; s < per; s++ {
					off := int64(s*per+dr-base) * slice
					share = append(share, agg[nd][off:off+slice]...)
				}
			}
			if dr == c.Rank {
				scatter(out, share, nd*per, slice)
			} else {
				c.sendOwned(dr, blk, share)
			}
		}
	}
	// Receive my shares of the non-handled nodes from their local
	// handlers, nd ascending.
	for nd := 0; nd < w.nodes; nd++ {
		if nd != myNode && !mine(nd) {
			scatter(out, c.Recv(base+nd%per), nd*per, slice)
		}
	}
	return out
}

// at is v[i], or nil in model mode (nil v).
func at(v [][]byte, i int) []byte {
	if v == nil {
		return nil
	}
	return v[i]
}

// concat joins send's slices for ranks lo..lo+n-1 into one owned buffer
// (nil in model mode).
func concat(send [][]byte, lo, n int) []byte {
	if send == nil {
		return nil
	}
	var b []byte
	for _, s := range send[lo : lo+n] {
		b = append(b, s...)
	}
	return b
}

// scatter splits a received share into out's slots for the senders
// lo, lo+1, ... (a no-op in model mode).
func scatter(out [][]byte, share []byte, lo int, slice int64) {
	if out == nil {
		return
	}
	for i := int64(0); i < int64(len(share)); i += slice {
		out[lo] = share[i : i+slice]
		lo++
	}
}

func uniformSizes(v [][]byte) bool {
	for _, s := range v[1:] {
		if len(s) != len(v[0]) {
			return false
		}
	}
	return true
}
