package mpi

import (
	"bytes"
	"fmt"
)

// Alltoall performs a complete exchange: rank r's send[d] lands in rank
// d's result[r] (MPI_Alltoall with per-destination byte slices). Every
// rank exchanges pairwise with every other rank in turn, over the sm
// transport within a node and the conduit across.
func (c *Comm) Alltoall(send [][]byte) [][]byte {
	if len(send) != c.Size {
		panic(fmt.Sprintf("mpi: Alltoall with %d slices for %d ranks", len(send), c.Size))
	}
	out := make([][]byte, len(send))
	out[c.Rank] = bytes.Clone(send[c.Rank])
	c.ring(send, 0, out)
	return out
}

// AlltoallModel runs the complete-exchange communication pattern for
// uniform per-destination slices of the given byte size without carrying
// payloads — the model-mode form of Alltoall, with the same messages.
func (c *Comm) AlltoallModel(slice int64) { c.ring(nil, slice, nil) }

// ring exchanges pairwise with every other rank in turn, storing the
// arrivals in out (when non-nil). In model mode (nil send) each message
// carries slice bytes payload-free.
func (c *Comm) ring(send [][]byte, slice int64, out [][]byte) {
	for step := 1; step < c.Size; step++ {
		to := (c.Rank + step) % c.Size
		from := (c.Rank - step + c.Size) % c.Size
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
