// Package ft reproduces the NAS FT benchmark studies of the thesis: a 3D
// FFT over a 1D slab decomposition (Figure 4.3) whose all-to-all exchange
// is implemented with one-sided puts, in two algorithmic variants —
// split-phase (bulk-synchronous, as the Fortran-MPI original) and
// communication/computation overlap — across the execution models the
// thesis compares: MPI, process-based UPC, pthreads UPC, and hierarchical
// UPC with sub-threads (OpenMP / Cilk++ / thread-pool). Verification mode
// runs real transforms on real data and checks the inverse round trip;
// model mode replays the identical communication and computation pattern
// with cost charging only, making the paper's Class B geometry feasible.
package ft

import (
	"fmt"

	"repro/internal/fft"
)

// Class is one NAS FT problem size.
type Class struct {
	Name       string
	NX, NY, NZ int
	Iters      int
}

// Classes returns the NAS FT problem classes (plus a tiny "T" for tests).
func Classes() []Class {
	return []Class{
		{Name: "T", NX: 32, NY: 16, NZ: 16, Iters: 2},
		{Name: "S", NX: 64, NY: 64, NZ: 64, Iters: 6},
		{Name: "W", NX: 128, NY: 128, NZ: 32, Iters: 6},
		{Name: "A", NX: 256, NY: 256, NZ: 128, Iters: 6},
		{Name: "B", NX: 512, NY: 256, NZ: 256, Iters: 20},
	}
}

// ClassByName resolves a class.
func ClassByName(name string) (Class, bool) {
	for _, c := range Classes() {
		if c.Name == name {
			return c, true
		}
	}
	return Class{}, false
}

// Total reports the grid's element count.
func (c Class) Total() int { return c.NX * c.NY * c.NZ }

// Decomposable reports whether the class divides across p slabs in both
// the z and y dimensions (the 1D decomposition's requirement).
func (c Class) Decomposable(p int) bool {
	return p > 0 && c.NZ%p == 0 && c.NY%p == 0 && fft.IsPow2(c.NX) &&
		fft.IsPow2(c.NY) && fft.IsPow2(c.NZ)
}

// String formats the class like the paper ("B (512*256*256)").
func (c Class) String() string {
	return fmt.Sprintf("%s (%d*%d*%d)", c.Name, c.NX, c.NY, c.NZ)
}

// Per-element kernel costs. The FFT stages are charged from the standard
// 5·N·log2(N) operation count against the machine's sustained FFT rate;
// evolve and the transposes are charged per element (both were observed to
// scale linearly with cores in Figure 4.4, i.e. cache-resident rather than
// memory-bound for the per-thread slab sizes of the study).
const (
	evolveFlopsPerElem  = 10.0
	transposeSecPerElem = 1.2e-9
)

// fft2DSeconds reports the compute charge of one z-plane's 2D FFT.
func (c Class) fft2DSeconds(flopsPerCore float64) float64 {
	ops := float64(c.NY)*fft.OpCount(c.NX) + float64(c.NX)*fft.OpCount(c.NY)
	return ops / flopsPerCore
}

// fft1DSeconds reports the compute charge of nCols z-direction transforms.
func (c Class) fft1DSeconds(nCols int, flopsPerCore float64) float64 {
	return float64(nCols) * fft.OpCount(c.NZ) / flopsPerCore
}

// evolveSeconds reports the compute charge of evolving n elements.
func evolveSeconds(n int, flopsPerCore float64) float64 {
	return float64(n) * evolveFlopsPerElem / flopsPerCore
}

// transposeSeconds reports the charge of locally rearranging n elements.
func transposeSeconds(n int) float64 {
	return float64(n) * transposeSecPerElem
}
