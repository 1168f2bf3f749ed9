package upc

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestAlloc2DShapeAndOwnership(t *testing.T) {
	_, err := Run(testCfg(6, 3, Processes, true), func(th *Thread) {
		s := Alloc2D[float64](th, 12, 18, 2, 3, 8)
		if r, c := s.Dims(); r != 12 || c != 18 {
			t.Errorf("dims %dx%d", r, c)
		}
		if tr, tc := s.TileDims(); tr != 6 || tc != 6 {
			t.Errorf("tile %dx%d, want 6x6", tr, tc)
		}
		// Ownership follows the Cartesian grid.
		if s.OwnerOf(0, 0) != 0 || s.OwnerOf(0, 17) != 2 ||
			s.OwnerOf(11, 0) != 3 || s.OwnerOf(11, 17) != 5 {
			t.Error("corner ownership wrong")
		}
		gr, gc := s.GridCoord(4)
		if gr != 1 || gc != 1 {
			t.Errorf("GridCoord(4) = (%d,%d)", gr, gc)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOwnerLocalRoundTrip2D(t *testing.T) {
	f := func(rRaw, cRaw uint8) bool {
		s := &Shared2D[int]{rows: 12, cols: 18, pr: 2, pc: 3, tileR: 6, tileC: 6}
		r := int(rRaw) % 12
		c := int(cRaw) % 18
		owner := s.OwnerOf(r, c)
		local := s.LocalOf(r, c)
		gr, gc := s.GridCoord(owner)
		// Reconstruct global coordinates from owner + local index.
		rr := gr*s.tileR + local/s.tileC
		cc := gc*s.tileC + local%s.tileC
		return rr == r && cc == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPutGetRectContiguousAndStrided(t *testing.T) {
	_, err := Run(testCfg(4, 2, Processes, true), func(th *Thread) {
		s := Alloc2D[int32](th, 16, 16, 2, 2, 4)
		tile := s.Tile(th)
		for i := range tile {
			tile[i] = int32(th.ID*1000 + i)
		}
		th.Barrier()
		if th.ID == 0 {
			// Full-width rectangle from thread 3's tile (contiguous path).
			got := make([]int32, 2*8)
			GetRect(th, s, got, 3, 1, 0, 2, 8)
			for i := range got {
				if want := int32(3000 + 8 + i); got[i] != want {
					t.Fatalf("contiguous rect [%d] = %d, want %d", i, got[i], want)
				}
			}
		}
		if th.ID == 2 { // read a narrow strided rect of thread 1's tile remotely
			got := make([]int32, 6)
			GetRect(th, s, got, 1, 2, 3, 2, 3)
			want := []int32{1019, 1020, 1021, 1027, 1028, 1029}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("strided rect [%d] = %d, want %d", i, got[i], want[i])
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStridedRectCostsMoreThanContiguous(t *testing.T) {
	var contig, strided sim.Duration
	_, err := Run(testCfg(2, 1, Processes, true), func(th *Thread) {
		s := Alloc2D[float64](th, 256, 256, 2, 1, 8)
		th.Barrier()
		if th.ID == 0 {
			buf := make([]float64, 64*64)
			start := th.Now()
			GetRect(th, s, buf[:16*256], 1, 0, 0, 16, 256) // full width: one message
			contig = th.Now() - start
			start = th.Now()
			GetRect(th, s, buf, 1, 0, 0, 64, 64) // 64 strided messages
			strided = th.Now() - start
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if strided <= contig {
		t.Errorf("64 strided rows (%v) must cost more than one contiguous block (%v) of equal bytes",
			strided, contig)
	}
}

func TestNeighborsWrap(t *testing.T) {
	_, err := Run(testCfg(6, 3, Processes, true), func(th *Thread) {
		s := Alloc2D[int](th, 6, 6, 2, 3, 8)
		if th.ID == 5 { // grid (1,2)
			if got := s.RowNeighbor(th, 1); got != 3 { // wraps to (1,0)
				t.Errorf("RowNeighbor(+1) = %d, want 3", got)
			}
			if got := s.ColNeighbor(th, 1); got != 2 { // wraps to (0,2)
				t.Errorf("ColNeighbor(+1) = %d, want 2", got)
			}
			if got := s.RowNeighbor(th, -1); got != 4 {
				t.Errorf("RowNeighbor(-1) = %d, want 4", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlloc2DValidation(t *testing.T) {
	mustPanic := func(name string, fn func(th *Thread)) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		Run(testCfg(4, 2, Processes, true), func(th *Thread) { fn(th) })
	}
	mustPanic("grid mismatch", func(th *Thread) { Alloc2D[int](th, 8, 8, 3, 2, 8) })
	mustPanic("untileable", func(th *Thread) { Alloc2D[int](th, 9, 8, 2, 2, 8) })
	mustPanic("bad rect", func(th *Thread) {
		s := Alloc2D[int](th, 8, 8, 2, 2, 8)
		GetRect(th, s, make([]int, 16), 0, 3, 3, 4, 4)
	})
}
