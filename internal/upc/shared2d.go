package upc

import "fmt"

// Shared2D is a two-dimensional shared array distributed over a Cartesian
// pr×pc processor grid — the multi-dimensional blocking the thesis's
// conclusions point to as the natural companion of hierarchical
// parallelism (Nishtala et al.'s Cartesian layouts / Barton et al.'s
// multi-dimensional blocking; an extension beyond the UPC 1.2 layouts of
// the paper's own experiments). Thread (gr, gc) of the grid owns the
// contiguous tile rows [gr·tileR, (gr+1)·tileR) × cols [gc·tileC,
// (gc+1)·tileC), stored row-major.
type Shared2D[T any] struct {
	rt           *Runtime
	rows, cols   int
	pr, pc       int // processor grid shape (pr*pc == THREADS)
	tileR, tileC int
	elemBytes    int
	segs         [][]T // per-thread tiles
}

// Alloc2D collectively allocates a rows×cols array over a pr×pc thread
// grid. pr*pc must equal THREADS and the dimensions must divide evenly.
func Alloc2D[T any](t *Thread, rows, cols, pr, pc, elemBytes int) *Shared2D[T] {
	if pr*pc != t.N {
		panic(fmt.Sprintf("upc: Alloc2D grid %dx%d != THREADS %d", pr, pc, t.N))
	}
	if rows <= 0 || cols <= 0 || rows%pr != 0 || cols%pc != 0 {
		panic(fmt.Sprintf("upc: Alloc2D %dx%d does not tile over %dx%d", rows, cols, pr, pc))
	}
	t.Barrier()
	// Encode the 2D shape into the collective record (block field carries
	// the packed grid shape for the mismatch check).
	rec := t.rt.allocRecord(t.allocSeq, rows*cols, elemBytes, pr*65536+pc, func() any {
		s := &Shared2D[T]{
			rt: t.rt, rows: rows, cols: cols, pr: pr, pc: pc,
			tileR: rows / pr, tileC: cols / pc, elemBytes: elemBytes,
		}
		s.segs = make([][]T, t.N)
		for th := range s.segs {
			s.segs[th] = make([]T, s.tileR*s.tileC)
		}
		return s
	})
	t.allocSeq++
	s, ok := rec.(*Shared2D[T])
	if !ok {
		panic("upc: collective Alloc type mismatch (expected Shared2D)")
	}
	t.Barrier()
	return s
}

// Dims reports the global shape.
func (s *Shared2D[T]) Dims() (rows, cols int) { return s.rows, s.cols }

// TileDims reports each thread's tile shape.
func (s *Shared2D[T]) TileDims() (tr, tc int) { return s.tileR, s.tileC }

// OwnerOf reports the thread owning global element (r, c).
func (s *Shared2D[T]) OwnerOf(r, c int) int {
	return (r/s.tileR)*s.pc + c/s.tileC
}

// GridCoord reports thread th's (row, col) position in the grid.
func (s *Shared2D[T]) GridCoord(th int) (gr, gc int) { return th / s.pc, th % s.pc }

// LocalOf maps global (r, c) to the owner's row-major tile index.
func (s *Shared2D[T]) LocalOf(r, c int) int {
	return (r%s.tileR)*s.tileC + c%s.tileC
}

// Tile returns this thread's tile (row-major tileR×tileC).
func (s *Shared2D[T]) Tile(t *Thread) []T { return s.segs[t.ID] }

// RowNeighbor reports the thread to the given grid-column offset on this
// thread's grid row (wrapping), for systolic algorithms.
func (s *Shared2D[T]) RowNeighbor(t *Thread, d int) int {
	gr, gc := s.GridCoord(t.ID)
	return gr*s.pc + ((gc+d)%s.pc+s.pc)%s.pc
}

// ColNeighbor reports the thread at the given grid-row offset in this
// thread's grid column (wrapping).
func (s *Shared2D[T]) ColNeighbor(t *Thread, d int) int {
	gr, gc := s.GridCoord(t.ID)
	return (((gr+d)%s.pr+s.pr)%s.pr)*s.pc + gc
}

func (s *Shared2D[T]) checkRect(r0, c0, h, w int, op string) {
	if r0 < 0 || c0 < 0 || h <= 0 || w <= 0 || r0+h > s.tileR || c0+w > s.tileC {
		panic(fmt.Sprintf("upc: %s rect (%d,%d)+%dx%d outside %dx%d tile",
			op, r0, c0, h, w, s.tileR, s.tileC))
	}
}

// GetRect reads an h×w rectangle from owner's tile at tile-local (r0, c0)
// into dst (row-major), blocking.
func GetRect[T any](t *Thread, s *Shared2D[T], dst []T, owner, r0, c0, h, w int) {
	s.checkRect(r0, c0, h, w, "GetRect")
	if len(dst) != h*w {
		panic(fmt.Sprintf("upc: GetRect dst %d != %dx%d", len(dst), h, w))
	}
	src := s.segs[owner]
	if w == s.tileC && c0 == 0 {
		op := t.getBytes(owner, int64(h*w*s.elemBytes), func() {
			copy(dst, src[r0*s.tileC:(r0+h)*s.tileC])
		})
		t.complete(op)
		return
	}
	handles := make([]*Handle, 0, h)
	for i := 0; i < h; i++ {
		i := i
		op := t.getBytes(owner, int64(w*s.elemBytes), func() {
			copy(dst[i*w:(i+1)*w], src[(r0+i)*s.tileC+c0:(r0+i)*s.tileC+c0+w])
		})
		handles = append(handles, t.handle(op, nil))
	}
	t.WaitAll(handles)
}
