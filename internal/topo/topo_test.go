package topo

import (
	"testing"
	"testing/quick"
)

func TestPresetsValidate(t *testing.T) {
	for _, name := range Presets() {
		m, ok := ByName(name)
		if !ok {
			t.Fatalf("preset %q missing", name)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Error("unknown preset should not resolve")
	}
}

func TestPaperTableCharacteristics(t *testing.T) {
	// Cross-check the structural facts of Table 2.1.
	l := Lehman()
	if l.CoresPerNode() != 8 {
		t.Errorf("Lehman cores/node = %d, want 8", l.CoresPerNode())
	}
	if l.HWThreadsPerNode() != 16 {
		t.Errorf("Lehman threads/node = %d, want 16", l.HWThreadsPerNode())
	}
	if l.Nodes != 12 {
		t.Errorf("Lehman nodes = %d, want 12", l.Nodes)
	}
	p := Pyramid()
	if p.CoresPerNode() != 8 || p.HWThreadsPerNode() != 8 {
		t.Errorf("Pyramid cores/node = %d, hwthreads = %d, want 8, 8",
			p.CoresPerNode(), p.HWThreadsPerNode())
	}
	if p.Nodes != 128 {
		t.Errorf("Pyramid nodes = %d, want 128", p.Nodes)
	}
	if p.TotalCores() != 1024 {
		t.Errorf("Pyramid total cores = %d, want 1024", p.TotalCores())
	}
}

func TestDistanceLevels(t *testing.T) {
	cases := []struct {
		a, b Place
		want Level
	}{
		{Place{0, 0, 0, 0}, Place{0, 0, 0, 0}, LevelSelf},
		{Place{0, 0, 0, 0}, Place{0, 0, 0, 1}, LevelSMT},
		{Place{0, 0, 0, 0}, Place{0, 0, 3, 0}, LevelSocket},
		{Place{0, 0, 0, 0}, Place{0, 1, 0, 0}, LevelNode},
		{Place{0, 1, 2, 0}, Place{3, 1, 2, 0}, LevelRemote},
	}
	for _, c := range cases {
		if got := Distance(c.a, c.b); got != c.want {
			t.Errorf("Distance(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := Distance(c.b, c.a); got != c.want {
			t.Errorf("Distance must be symmetric: (%v,%v) = %v, want %v", c.b, c.a, got, c.want)
		}
	}
}

func TestLayoutSocketRoundRobin(t *testing.T) {
	m := Lehman()
	places, err := m.Layout(4, 2, BindSocketRR)
	if err != nil {
		t.Fatal(err)
	}
	// 2 threads/node: each node gets one thread per socket.
	want := []Place{
		{Node: 0, Socket: 0, Core: 0}, {Node: 0, Socket: 1, Core: 0},
		{Node: 1, Socket: 0, Core: 0}, {Node: 1, Socket: 1, Core: 0},
	}
	for i := range want {
		if places[i] != want[i] {
			t.Errorf("places[%d] = %v, want %v", i, places[i], want[i])
		}
	}
}

func TestLayoutBlockedFillsSocketFirst(t *testing.T) {
	m := Pyramid()
	places, err := m.Layout(8, 8, BindCoreBlocked)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if places[i].Socket != 0 {
			t.Errorf("rank %d should be on socket 0, got %v", i, places[i])
		}
	}
	for i := 4; i < 8; i++ {
		if places[i].Socket != 1 {
			t.Errorf("rank %d should be on socket 1, got %v", i, places[i])
		}
	}
}

func TestLayoutSMTOverflow(t *testing.T) {
	m := Lehman()
	places, err := m.Layout(16, 16, BindSocketRR)
	if err != nil {
		t.Fatal(err)
	}
	smt := 0
	for _, p := range places {
		if p.SMT == 1 {
			smt++
		}
	}
	if smt != 8 {
		t.Errorf("16 threads on an 8-core node must use 8 SMT slots, got %d", smt)
	}
}

func TestLayoutErrors(t *testing.T) {
	m := Lehman()
	if _, err := m.Layout(0, 1, BindSocketRR); err == nil {
		t.Error("zero threads must error")
	}
	if _, err := m.Layout(1000, 8, BindSocketRR); err == nil {
		t.Error("too many nodes must error")
	}
	if _, err := m.Layout(32, 32, BindSocketRR); err == nil {
		t.Error("oversubscribed node must error")
	}
}

func TestLayoutSlotsDistinctWithinNode(t *testing.T) {
	// Property: within a node, no two contexts share a hardware slot, for
	// any feasible layout and any binding.
	m := Lehman()
	f := func(perNodeRaw, bindRaw uint8) bool {
		perNode := int(perNodeRaw)%m.HWThreadsPerNode() + 1
		bind := Binding(int(bindRaw) % 2)
		total := perNode * 2
		places, err := m.Layout(total, perNode, bind)
		if err != nil {
			return false
		}
		seen := map[Place]bool{}
		for _, p := range places {
			if seen[p] {
				return false
			}
			seen[p] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSubPlacesStayOnMasterSocketFirst(t *testing.T) {
	m := Lehman()
	base := Place{Node: 2, Socket: 1, Core: 0}
	sub, err := m.SubPlaces(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sub[0] != base {
		t.Errorf("sub[0] = %v, want master slot %v", sub[0], base)
	}
	for i, p := range sub {
		if p.Node != base.Node {
			t.Errorf("sub[%d] = %v left the node", i, p)
		}
		if p.Socket != base.Socket {
			t.Errorf("sub[%d] = %v left the master socket before it filled", i, p)
		}
	}
	// 8 sub-threads on a 4-core 2-way-SMT socket stay on the master's
	// socket, filling its SMT slots before spilling (the paper's socket
	// confinement: 8×n configurations use one socket per node).
	sub8, err := m.SubPlaces(base, 8)
	if err != nil {
		t.Fatal(err)
	}
	smt := 0
	for i, p := range sub8 {
		if p.Socket != base.Socket {
			t.Errorf("sub8[%d] = %v left the master socket", i, p)
		}
		if p.SMT == 1 {
			smt++
		}
	}
	if smt != 4 {
		t.Errorf("expected 4 SMT slots in use on the master socket, got %d", smt)
	}
}

func TestSubPlacesSMT(t *testing.T) {
	m := Lehman()
	sub, err := m.SubPlaces(Place{}, 16)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[Place]bool{}
	for _, p := range sub {
		if seen[p] {
			t.Fatalf("duplicate slot %v", p)
		}
		seen[p] = true
	}
	if _, err := m.SubPlaces(Place{}, 17); err == nil {
		t.Error("17 sub-threads on a 16-slot node must error")
	}
}

func TestSameNodeRanks(t *testing.T) {
	got := SameNodeRanks(5, 16, 4)
	want := []int{4, 5, 6, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SameNodeRanks(5,16,4) = %v, want %v", got, want)
		}
	}
	// Ragged tail: 10 threads, 4 per node, rank 9 is on node 2 with rank 8.
	got = SameNodeRanks(9, 10, 4)
	if len(got) != 2 || got[0] != 8 || got[1] != 9 {
		t.Errorf("ragged tail SameNodeRanks = %v, want [8 9]", got)
	}
}

func TestPlaceGlobalCoreAndString(t *testing.T) {
	m := Lehman()
	p := Place{Node: 1, Socket: 1, Core: 3}
	if got := p.GlobalCore(m); got != 15 {
		t.Errorf("GlobalCore = %d, want 15", got)
	}
	if s := p.String(); s != "n1/s1/c3" {
		t.Errorf("String = %q", s)
	}
	p.SMT = 1
	if s := p.String(); s != "n1/s1/c3.1" {
		t.Errorf("String with SMT = %q", s)
	}
}

func TestLevelString(t *testing.T) {
	names := []struct {
		level Level
		want  string
	}{
		{LevelSelf, "self"}, {LevelSMT, "smt"}, {LevelSocket, "socket"},
		{LevelNode, "node"}, {LevelRemote, "remote"},
	}
	for _, tc := range names {
		if got := tc.level.String(); got != tc.want {
			t.Errorf("Level(%d).String() = %q, want %q", int(tc.level), got, tc.want)
		}
	}
}

func TestScatterPlaces(t *testing.T) {
	m := Lehman()
	pl, err := m.ScatterPlaces(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Scattered threads alternate sockets: 0,1,0,1.
	for i, p := range pl {
		if p.Node != 3 {
			t.Errorf("scatter[%d] on node %d", i, p.Node)
		}
		if p.Socket != i%2 {
			t.Errorf("scatter[%d] on socket %d, want %d", i, p.Socket, i%2)
		}
	}
	if _, err := m.ScatterPlaces(0, 99); err == nil {
		t.Error("oversubscribed scatter must error")
	}
	if _, err := m.ScatterPlaces(0, 0); err == nil {
		t.Error("zero scatter must error")
	}
}

func TestPresetXlateSuffixes(t *testing.T) {
	base, _ := ByName("pyramid")
	if base.XlateAssist || base.XlateCacheLines != 0 {
		t.Fatalf("bare preset has translation knobs set: %+v", base)
	}
	m, ok := ByName("pyramid+xcache")
	if !ok || m.XlateCacheLines != DefaultXlateCacheLines || m.XlateAssist {
		t.Fatalf("pyramid+xcache: ok=%v lines=%d assist=%v", ok, m.XlateCacheLines, m.XlateAssist)
	}
	if m.Name != "pyramid+xcache" {
		t.Errorf("suffixed preset name = %q", m.Name)
	}
	m, ok = ByName("lehman+xassist")
	if !ok || !m.XlateAssist || m.XlateCacheLines != 0 {
		t.Fatalf("lehman+xassist: ok=%v lines=%d assist=%v", ok, m.XlateCacheLines, m.XlateAssist)
	}
	m, ok = ByName("lehman+xcache+xassist")
	if !ok || !m.XlateAssist || m.XlateCacheLines != DefaultXlateCacheLines {
		t.Fatalf("combined suffixes: ok=%v lines=%d assist=%v", ok, m.XlateCacheLines, m.XlateAssist)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("suffixed machine invalid: %v", err)
	}
	for _, bad := range []string{"pyramid+", "pyramid+turbo", "nonesuch+xcache", "+xcache"} {
		if _, ok := ByName(bad); ok {
			t.Errorf("ByName(%q) resolved, want miss", bad)
		}
	}
	neg := Lehman()
	neg.XlateCacheLines = -1
	if err := neg.Validate(); err == nil {
		t.Error("negative XlateCacheLines validated")
	}
}
