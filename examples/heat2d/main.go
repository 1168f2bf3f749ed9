// Heat2d: Jacobi heat diffusion on an N×N grid, decomposed into row
// blocks across UPC threads, with halo exchange through one-sided puts
// and a node-local thread group used for a cheap group barrier between
// the intra-node halo updates — the Chapter 3 thread-group technique on a
// stencil workload. The parallel result is verified against a serial
// solver. Run with:
//
//	go run ./examples/heat2d
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/group"
	"repro/internal/topo"
	"repro/internal/upc"
)

const (
	n     = 128 // grid side
	steps = 50
)

// serial computes the reference solution.
func serial() []float64 {
	cur := initial()
	next := initial() // boundary rows persist across swaps
	for s := 0; s < steps; s++ {
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				next[i*n+j] = 0.25 * (cur[(i-1)*n+j] + cur[(i+1)*n+j] +
					cur[i*n+j-1] + cur[i*n+j+1])
			}
		}
		cur, next = next, cur
	}
	return cur
}

func initial() []float64 {
	g := make([]float64, n*n)
	for j := 0; j < n; j++ {
		g[j] = 100 // hot top edge
	}
	return g
}

func main() {
	threads := 8
	rows := n / threads
	cfg := upc.Config{
		Machine:        topo.Lehman(),
		Threads:        threads,
		ThreadsPerNode: 4,
		Backend:        upc.Processes,
		PSHM:           true,
		Seed:           7,
	}

	final := make([]float64, n*n)
	stats, err := upc.Run(cfg, func(t *upc.Thread) {
		g := group.NodeGroup(t)

		// Each thread's partition holds its rows plus two halo rows:
		// layout [halo-top | rows... | halo-bottom], each row n wide.
		cur := upc.Alloc[float64](t, threads*(rows+2)*n, 8, (rows+2)*n)
		next := upc.Alloc[float64](t, threads*(rows+2)*n, 8, (rows+2)*n)

		// First touch: global row index r = t.ID*rows + local.
		loc := cur.Local(t)
		ref := initial()
		for r := 0; r < rows; r++ {
			copy(loc[(r+1)*n:(r+2)*n], ref[(t.ID*rows+r)*n:(t.ID*rows+r+1)*n])
		}
		t.Barrier()

		a, b := cur, next
		for s := 0; s < steps; s++ {
			// Halo exchange: push our boundary rows into the neighbors'
			// halo slots (one-sided puts; intra-node ones ride PSHM).
			la := a.Local(t)
			if t.ID > 0 {
				upc.PutT(t, a, t.ID-1, (rows+1)*n, la[n:2*n])
			}
			if t.ID < t.N-1 {
				upc.PutT(t, a, t.ID+1, 0, la[rows*n:(rows+1)*n])
			}
			// The group barrier covers intra-node neighbors cheaply; the
			// global barrier orders the inter-node halos.
			g.Barrier()
			t.Barrier()

			// Stencil update on interior points; charge the streaming cost.
			lb := b.Local(t)
			for r := 1; r <= rows; r++ {
				gr := t.ID*rows + r - 1 // global row
				if gr == 0 || gr == n-1 {
					copy(lb[r*n:(r+1)*n], la[r*n:(r+1)*n]) // fixed boundary
					continue
				}
				for j := 1; j < n-1; j++ {
					lb[r*n+j] = 0.25 * (la[(r-1)*n+j] + la[(r+1)*n+j] +
						la[r*n+j-1] + la[r*n+j+1])
				}
				lb[r*n] = la[r*n]
				lb[r*n+n-1] = la[r*n+n-1]
			}
			t.MemStream(int64(rows) * n * 8 * 5)
			a, b = b, a
			t.Barrier()
		}

		// Collect the final rows.
		la := a.Local(t)
		for r := 0; r < rows; r++ {
			copy(final[(t.ID*rows+r)*n:(t.ID*rows+r+1)*n], la[(r+1)*n:(r+2)*n])
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	want := serial()
	worst := 0.0
	for i := range want {
		if d := math.Abs(final[i] - want[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-12 {
		log.Fatalf("parallel result differs from serial by %g", worst)
	}
	fmt.Printf("heat2d: %dx%d grid, %d steps on %d threads — matches serial (max err %g)\n",
		n, n, steps, threads, worst)
	fmt.Printf("simulated time: %v\n", stats.Elapsed)
}
