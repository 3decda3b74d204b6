package graph

import (
	"testing"
	"testing/quick"

	"div/internal/rng"
)

func TestBFSPath(t *testing.T) {
	g := Path(5)
	dist := BFS(g, 0)
	for v, want := range []int{0, 1, 2, 3, 4} {
		if dist[v] != want {
			t.Errorf("dist[%d] = %d, want %d", v, dist[v], want)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := MustFromEdges(4, []Edge{{0, 1}, {2, 3}})
	dist := BFS(g, 0)
	if dist[2] != -1 || dist[3] != -1 {
		t.Errorf("unreachable distances = %v", dist)
	}
}

func TestIsConnected(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want bool
	}{
		{"empty", MustFromEdges(0, nil), true},
		{"singleton", MustFromEdges(1, nil), true},
		{"two isolated", MustFromEdges(2, nil), false},
		{"path", Path(10), true},
		{"two components", MustFromEdges(4, []Edge{{0, 1}, {2, 3}}), false},
	}
	for _, tc := range tests {
		if got := IsConnected(tc.g); got != tc.want {
			t.Errorf("%s: IsConnected = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestComponents(t *testing.T) {
	g := MustFromEdges(6, []Edge{{0, 1}, {1, 2}, {3, 4}})
	comps := Components(g)
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	sizes := []int{len(comps[0]), len(comps[1]), len(comps[2])}
	want := []int{3, 2, 1}
	for i := range sizes {
		if sizes[i] != want[i] {
			t.Errorf("component %d size %d, want %d", i, sizes[i], want[i])
		}
	}
}

func TestDiameter(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{"path10", Path(10), 9},
		{"cycle8", Cycle(8), 4},
		{"cycle9", Cycle(9), 4},
		{"complete7", Complete(7), 1},
		{"star9", Star(9), 2},
		{"hypercube4", Hypercube(4), 4},
		{"grid3x4", Grid(3, 4), 5},
	}
	for _, tc := range tests {
		d, err := Diameter(tc.g)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if d != tc.want {
			t.Errorf("%s: diameter %d, want %d", tc.name, d, tc.want)
		}
	}
}

func TestDiameterDisconnected(t *testing.T) {
	g := MustFromEdges(3, []Edge{{0, 1}})
	if _, err := Diameter(g); err == nil {
		t.Error("Diameter of disconnected graph succeeded")
	}
}

func TestEccentricity(t *testing.T) {
	g := Path(7)
	ecc, err := Eccentricity(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ecc != 3 {
		t.Errorf("eccentricity of centre = %d, want 3", ecc)
	}
}

func TestIsBipartiteOddEvenCycles(t *testing.T) {
	if !IsBipartite(Cycle(10)) {
		t.Error("even cycle not bipartite")
	}
	if IsBipartite(Cycle(9)) {
		t.Error("odd cycle bipartite")
	}
}

func TestDegreesStats(t *testing.T) {
	g := Star(5) // centre degree 4, four leaves degree 1, 2m = 8
	s := Degrees(g)
	if s.Min != 1 || s.Max != 4 {
		t.Errorf("min/max = %d/%d, want 1/4", s.Min, s.Max)
	}
	if s.Mean != 8.0/5 {
		t.Errorf("mean = %v, want %v", s.Mean, 8.0/5)
	}
	if s.PiMin != 1.0/8 || s.PiMax != 0.5 {
		t.Errorf("piMin/piMax = %v/%v, want 0.125/0.5", s.PiMin, s.PiMax)
	}
}

func TestTriangles(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int64
	}{
		{"K3", Complete(3), 1},
		{"K4", Complete(4), 4},
		{"K5", Complete(5), 10},
		{"C5", Cycle(5), 0},
		{"star", Star(10), 0},
	}
	for _, tc := range tests {
		if got := Triangles(tc.g); got != tc.want {
			t.Errorf("%s: %d triangles, want %d", tc.name, got, tc.want)
		}
	}
}

// TestQuickRandomGraphsValid checks structural invariants of random
// edge-set constructions: generated graphs always validate, BFS
// distances are consistent with connectivity, and component sizes
// partition the vertex set.
func TestQuickRandomGraphsValid(t *testing.T) {
	f := func(seed uint64, rawN uint8, rawP uint8) bool {
		n := int(rawN%40) + 2
		p := float64(rawP%100) / 100
		g, err := Gnp(n, p, rng.New(seed))
		if err != nil {
			return false
		}
		if g.Validate() != nil {
			return false
		}
		comps := Components(g)
		total := 0
		for _, c := range comps {
			total += len(c)
		}
		if total != n {
			return false
		}
		return IsConnected(g) == (len(comps) <= 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestIsConnectedAllocs: the satellite gate for the pooled-bitset BFS.
// After a warm-up populates the scratch pool, connectivity probes must
// not allocate — ConnectedGnp retries at n = 10⁶⁺ lean on this.
func TestIsConnectedAllocs(t *testing.T) {
	g, err := GnpSeeded(20000, 0.0008, 11, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	IsConnected(g) // warm the scratch pool
	if allocs := testing.AllocsPerRun(20, func() { IsConnected(g) }); allocs != 0 {
		t.Errorf("IsConnected allocates %.1f per run, want 0", allocs)
	}
}

// TestIsConnectedCases pins the bitset BFS against the definitional
// corner cases the old distance-slice implementation covered.
func TestIsConnectedCases(t *testing.T) {
	if !IsConnected(MustFromEdges(0, nil)) || !IsConnected(MustFromEdges(1, nil)) {
		t.Error("empty and single-vertex graphs are connected by convention")
	}
	if IsConnected(MustFromEdges(2, nil)) {
		t.Error("two isolated vertices reported connected")
	}
	if !IsConnected(Path(100)) || !IsConnected(Star(65)) || !IsConnected(Cycle(64)) {
		t.Error("connected family reported disconnected")
	}
	if IsConnected(MustFromEdges(5, []Edge{{0, 1}, {2, 3}, {3, 4}})) {
		t.Error("two components reported connected")
	}
	// A vertex count straddling the 64-bit word boundary of the bitset.
	if !IsConnected(Path(64)) || !IsConnected(Path(65)) || IsConnected(MustFromEdges(65, []Edge{{0, 1}})) {
		t.Error("word-boundary sizes misreported")
	}

	// Inputs on which the BFS switches to bottom-up sweeps (bottomUp),
	// or stays mostly top-down, each held to the component count.
	rr, err := RandomRegularSeeded(3000, 6, 1, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	isolated := MustFromEdges(5, nil)
	for _, tc := range []struct {
		name     string
		g        *Graph
		bottomUp bool
	}{
		{"random regular", rr, true},
		{"two large components", disjointUnion(rr, rr), true},
		{"isolated vertices after a large component", disjointUnion(rr, isolated), true},
		{"isolated vertices before a large component", disjointUnion(isolated, rr), false},
		{"path", Path(5000), false},
		{"path and isolated vertices", disjointUnion(Path(5000), isolated), false},
		{"star", Star(5000), true},
		{"barbell", Barbell(200, 50), true},
		{"two barbells", disjointUnion(Barbell(100, 10), Barbell(100, 10)), true},
	} {
		want := len(Components(tc.g)) == 1
		got, sweeps := isConnected(tc.g)
		if got != want {
			t.Errorf("%s: IsConnected = %v, Components says %v", tc.name, got, want)
		}
		if tc.bottomUp && sweeps == 0 {
			t.Errorf("%s: no bottom-up sweep ran", tc.name)
		}
	}
}

// disjointUnion places the graphs side by side, relabelling each one's
// vertices after the previous ones'.
func disjointUnion(gs ...*Graph) *Graph {
	var edges []Edge
	n := 0
	for _, g := range gs {
		for _, e := range g.Edges() {
			edges = append(edges, Edge{U: n + e.U, V: n + e.V})
		}
		n += g.N()
	}
	return MustFromEdges(n, edges)
}
