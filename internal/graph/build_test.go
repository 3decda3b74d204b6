package graph

import (
	"fmt"
	"math"
	"testing"

	"div/internal/rng"
)

// graphBytesEqual reports byte-level equality of the CSR arrays.
func graphBytesEqual(a, b *Graph) bool {
	if len(a.offsets) != len(b.offsets) || len(a.adj) != len(b.adj) {
		return false
	}
	for i := range a.offsets {
		if a.offsets[i] != b.offsets[i] {
			return false
		}
	}
	for i := range a.adj {
		if a.adj[i] != b.adj[i] {
			return false
		}
	}
	return true
}

// seededBuilders enumerates the seeded families at test sizes, so the
// identity matrix below covers every one of them.
var seededBuilders = []struct {
	name  string
	build func(seed uint64, opts BuildOpts) (*Graph, error)
}{
	{"gnp", func(seed uint64, opts BuildOpts) (*Graph, error) {
		return GnpSeeded(500, 0.02, seed, opts)
	}},
	{"gnpDense", func(seed uint64, opts BuildOpts) (*Graph, error) {
		return GnpSeeded(120, 0.6, seed, opts)
	}},
	{"connectedGnp", func(seed uint64, opts BuildOpts) (*Graph, error) {
		return ConnectedGnpSeeded(300, 0.03, seed, 200, opts)
	}},
	{"randomRegular", func(seed uint64, opts BuildOpts) (*Graph, error) {
		return RandomRegularSeeded(400, 6, seed, opts)
	}},
	{"wattsStrogatz", func(seed uint64, opts BuildOpts) (*Graph, error) {
		return WattsStrogatzSeeded(400, 6, 0.2, seed, opts)
	}},
	{"barabasiAlbert", func(seed uint64, opts BuildOpts) (*Graph, error) {
		return BarabasiAlbertSeeded(400, 3, seed, opts)
	}},
}

// buildWidths are the worker counts the identity tests sweep: serial,
// every partition count up to maxBuildParts, and a width above it.
var buildWidths = []int{1, 2, 3, 4, 7}

// TestBuildIdentityAcrossWorkersAndStripes is the determinism matrix:
// every seeded family must produce byte-identical CSR arrays at every
// worker count, i.e. for every row partition.
func TestBuildIdentityAcrossWorkersAndStripes(t *testing.T) {
	for _, fam := range seededBuilders {
		t.Run(fam.name, func(t *testing.T) {
			ref, err := fam.build(42, BuildOpts{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.Validate(); err != nil {
				t.Fatalf("reference graph invalid: %v", err)
			}
			for _, workers := range buildWidths {
				g, err := fam.build(42, BuildOpts{Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !graphBytesEqual(ref, g) {
					t.Fatalf("workers=%d: CSR differs from serial reference", workers)
				}
			}
		})
	}
}

// TestBuildSeedSensitivity guards against a degenerate keying bug:
// different seeds must give different graphs (overwhelmingly likely
// for these sizes).
func TestBuildSeedSensitivity(t *testing.T) {
	a, err := GnpSeeded(500, 0.02, 1, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GnpSeeded(500, 0.02, 2, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if graphBytesEqual(a, b) {
		t.Fatal("seeds 1 and 2 produced identical G(500,0.02) — keying broken")
	}
}

// TestBuildCSRMatchesNewFromEdges: the partitioned assembler over an
// edge list must equal the serial NewFromEdges output byte for byte.
func TestBuildCSRMatchesNewFromEdges(t *testing.T) {
	r := rng.New(7)
	const n = 300
	var edges []Edge
	seen := map[[2]int]bool{}
	for len(edges) < 2000 {
		u, v := r.IntN(n), r.IntN(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		edges = append(edges, Edge{U: u, V: v})
	}
	ref, err := NewFromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range buildWidths[1:] {
		g, err := BuildCSR(n, EdgeList(n, edges), BuildOpts{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !graphBytesEqual(ref, g) {
			t.Fatalf("workers=%d: differs from NewFromEdges", workers)
		}
	}
}

// TestBuildCSRErrors pins the exact legacy error strings and that
// error selection is deterministic under partitioning (earliest row
// wins, not fastest worker).
func TestBuildCSRErrors(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []Edge
		want  string
	}{
		{"negative n", -1, nil, "graph: negative vertex count -1"},
		{"out of range", 3, []Edge{{0, 1}, {1, 5}}, "graph: edge 1 (1,5) out of range [0,3)"},
		{"negative vertex", 3, []Edge{{-1, 2}}, "graph: edge 0 (-1,2) out of range [0,3)"},
		{"self loop", 3, []Edge{{0, 1}, {2, 2}}, "graph: edge 1 is a self-loop at 2"},
		{"duplicate", 3, []Edge{{0, 1}, {1, 2}, {1, 0}}, "graph: duplicate edge (0,1)"},
	}
	for _, tc := range cases {
		for _, workers := range buildWidths {
			_, err := BuildCSR(tc.n, EdgeList(tc.n, tc.edges), BuildOpts{Workers: workers})
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s (workers=%d): err = %v, want %q", tc.name, workers, err, tc.want)
			}
		}
	}
	// Errors in several partitions: the earliest row's error must win at
	// every width, including the duplicate found by the sort phase.
	edges := []Edge{{0, 1}, {1, 1}, {2, 9}, {3, 3}}
	for _, workers := range buildWidths {
		_, err := BuildCSR(4, EdgeList(4, edges), BuildOpts{Workers: workers})
		want := "graph: edge 1 is a self-loop at 1"
		if err == nil || err.Error() != want {
			t.Errorf("workers=%d: err = %v, want %q", workers, err, want)
		}
		dups := []Edge{{0, 1}, {2, 3}, {5, 6}, {3, 2}, {7, 6}, {1, 0}, {6, 5}}
		_, err = BuildCSR(8, EdgeList(8, dups), BuildOpts{Workers: workers})
		want = "graph: duplicate edge (0,1)"
		if err == nil || err.Error() != want {
			t.Errorf("workers=%d: err = %v, want %q", workers, err, want)
		}
	}
}

// TestBuildStats checks per-phase accounting is populated.
func TestBuildStats(t *testing.T) {
	var st BuildStats
	if _, err := GnpSeeded(20000, 0.004, 3, BuildOpts{Workers: 2, Stats: &st}); err != nil {
		t.Fatal(err)
	}
	if st.Parts != 2 {
		t.Errorf("Parts = %d, want 2", st.Parts)
	}
	if st.CountNanos <= 0 || st.ScatterNanos <= 0 || st.SortNanos <= 0 {
		t.Errorf("phase nanos not populated: %+v", st)
	}
	if st.TotalNanos() < st.CountNanos {
		t.Errorf("TotalNanos %d < CountNanos %d", st.TotalNanos(), st.CountNanos)
	}

	var rrSt BuildStats
	if _, err := RandomRegularSeeded(2000, 4, 3, BuildOpts{Stats: &rrSt}); err != nil {
		t.Fatal(err)
	}
	if rrSt.SampleNanos <= 0 {
		t.Errorf("RandomRegular SampleNanos = %d, want > 0 (pairing phase)", rrSt.SampleNanos)
	}
}

// TestGnpSeededEdgeCases covers the p extremes and empty sizes.
func TestGnpSeededEdgeCases(t *testing.T) {
	g, err := GnpSeeded(100, 0, 1, BuildOpts{})
	if err != nil || g.M() != 0 || g.N() != 100 {
		t.Fatalf("p=0: g=%v err=%v", g, err)
	}
	g, err = GnpSeeded(50, 1, 1, BuildOpts{})
	if err != nil || !g.IsComplete() {
		t.Fatalf("p=1: not complete, err=%v", err)
	}
	if _, err := GnpSeeded(10, 1.5, 1, BuildOpts{}); err == nil {
		t.Fatal("p=1.5 accepted")
	}
	g, err = GnpSeeded(0, 0.5, 1, BuildOpts{})
	if err != nil || g.N() != 0 {
		t.Fatalf("n=0: g=%v err=%v", g, err)
	}
	if got := g.Name(); got != "gnp(n=0,p=0.5)" {
		t.Fatalf("name = %q", got)
	}
}

// TestGeometricSkipClamp is the satellite regression test: a
// vanishingly small p makes log(u)/lq astronomically large, and the
// skip must clamp instead of wrapping negative through the float→int
// conversion (which previously could walk the edge cursor backwards).
func TestGeometricSkipClamp(t *testing.T) {
	lq := logOneMinus(1e-300) // ≈ -1e-300
	if got := skipFromUniform(0.5, lq); got != maxGeometricSkip {
		t.Errorf("skipFromUniform(0.5, %g) = %d, want clamp %d", lq, got, maxGeometricSkip)
	}
	if got := skipFromUniform(math.SmallestNonzeroFloat64, logOneMinus(0.5)); got < 0 {
		t.Errorf("tiny u gave negative skip %d", got)
	}
	// Sane small skips are untouched.
	if got := skipFromUniform(0.25, logOneMinus(0.5)); got != 2 {
		t.Errorf("skipFromUniform(0.25, log(0.5)) = %d, want 2", got)
	}
	// End to end: a tiny-p build terminates with an (almost surely)
	// empty edge set instead of hanging, on both generations.
	g, err := Gnp(1000, 1e-18, rng.New(1))
	if err != nil || g.M() != 0 {
		t.Fatalf("legacy tiny-p: m=%d err=%v", g.M(), err)
	}
	g, err = GnpSeeded(1000, 1e-18, 1, BuildOpts{})
	if err != nil || g.M() != 0 {
		t.Fatalf("seeded tiny-p: m=%d err=%v", g.M(), err)
	}
}

// TestRandomRegularSeededPairingEquivalence replays the seeded
// pairing's exact draw sequence through a map-dedup reference
// implementation: the flat-table dedup must change nothing about
// which edges get paired. This is the serial-equivalence proof for
// the stream-keyed pairing.
func TestRandomRegularSeededPairingEquivalence(t *testing.T) {
	const n, d = 500, 6
	for seed := uint64(0); seed < 5; seed++ {
		g, err := RandomRegularSeeded(n, d, seed, BuildOpts{})
		if err != nil {
			t.Fatal(err)
		}
		ref, attempts := mapPairingReference(n, d, seed)
		if ref == nil {
			t.Fatalf("seed %d: reference pairing failed where builder succeeded", seed)
		}
		refG, err := NewFromEdges(n, ref)
		if err != nil {
			t.Fatal(err)
		}
		if !graphBytesEqual(g, refG) {
			t.Fatalf("seed %d: flat-table pairing differs from map reference (after %d attempts)", seed, attempts)
		}
	}
}

// mapPairingReference mirrors tryPairingTable draw for draw, with the
// legacy map dedup instead of the neighbour table.
func mapPairingReference(n, d int, seed uint64) ([]Edge, int) {
	key := func(u, v int32) int64 {
		if u > v {
			u, v = v, u
		}
		return int64(u)<<32 | int64(v)
	}
	for attempt := 0; attempt < 1000; attempt++ {
		s := rng.NewStream(seed, uint64(attempt))
		stubs := make([]int32, 0, n*d)
		for v := 0; v < n; v++ {
			for i := 0; i < d; i++ {
				stubs = append(stubs, int32(v))
			}
		}
		for i := len(stubs) - 1; i > 0; i-- {
			j := int(s.Uint64n(uint64(i + 1)))
			stubs[i], stubs[j] = stubs[j], stubs[i]
		}
		adj := make(map[int64]bool, n*d/2)
		edges := make([]Edge, 0, n*d/2)
		ok := true
		for len(stubs) > 0 {
			u := stubs[len(stubs)-1]
			stubs = stubs[:len(stubs)-1]
			paired := false
			for try := 0; try < 4*len(stubs)+16 && len(stubs) > 0; try++ {
				j := int(s.Uint64n(uint64(len(stubs))))
				v := stubs[j]
				if v == u || adj[key(u, v)] {
					continue
				}
				stubs[j] = stubs[len(stubs)-1]
				stubs = stubs[:len(stubs)-1]
				adj[key(u, v)] = true
				edges = append(edges, Edge{U: int(u), V: int(v)})
				paired = true
				break
			}
			if !paired {
				ok = false
				break
			}
		}
		if ok {
			return edges, attempt + 1
		}
	}
	return nil, 0
}

// TestWattsStrogatzSeededLattice: with beta = 0 there is no
// randomness, so the seeded and legacy builders must agree exactly —
// this pins the parallel lattice fill to the serial loop.
func TestWattsStrogatzSeededLattice(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{20, 4}, {101, 6}, {64, 2}} {
		legacy, err := WattsStrogatz(tc.n, tc.d, 0, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			seeded, err := WattsStrogatzSeeded(tc.n, tc.d, 0, 99, BuildOpts{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !graphBytesEqual(legacy, seeded) {
				t.Fatalf("n=%d d=%d workers=%d: beta=0 lattice differs from legacy", tc.n, tc.d, workers)
			}
		}
	}
}

// TestSeededBuildersValidate runs the structural validator and basic
// family invariants over every seeded family.
func TestSeededBuildersValidate(t *testing.T) {
	g, err := RandomRegularSeeded(300, 8, 5, BuildOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.IsRegular() || g.MaxDegree() != 8 {
		t.Fatalf("not 8-regular: min=%d max=%d", g.MinDegree(), g.MaxDegree())
	}

	g, err = ConnectedGnpSeeded(300, 0.03, 5, 200, BuildOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !IsConnected(g) {
		t.Fatal("ConnectedGnpSeeded returned a disconnected graph")
	}

	g, err = BarabasiAlbertSeeded(500, 3, 5, BuildOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if want := int64(4*3/2 + (500-4)*3); int64(g.M()) != want {
		t.Fatalf("BA edge count %d, want %d", g.M(), want)
	}

	g, err = WattsStrogatzSeeded(300, 6, 0.3, 5, BuildOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if int64(g.M()) != 300*3 {
		t.Fatalf("WS edge count %d, want %d", g.M(), 300*3)
	}
}

// TestBuildCSRReplayMismatchPanics pins the assembler's contract
// violation behaviour: a source that emits different edges in the two
// passes must fail loudly (cursor overrun), never return a silently
// corrupt graph.
func TestBuildCSRReplayMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from replay-contract violation")
		}
	}()
	_, _ = BuildCSR(4, flakySource{}, BuildOpts{})
}

// flakySource violates the replay contract: its count sees one edge,
// its scatter writes two.
type flakySource struct{}

func (flakySource) Rows() int               { return 1 }
func (flakySource) RowCost(r int) float64   { return float64(r) }
func (flakySource) Sorted() bool            { return false }
func (flakySource) Part(lo, hi int) RowPart { return flakySource{} }

func (flakySource) Count(deg []int32) error {
	deg[0]++
	deg[1]++
	return nil
}

func (flakySource) Scatter(fill []int64, adj []int32) {
	EdgeList(4, []Edge{{0, 1}, {2, 3}}).Part(0, 2).Scatter(fill, adj)
}

// TestEdgeListSourceRows sanity-checks the EdgeList view: a part
// covers its own rows only and reports errors by global edge index.
func TestEdgeListSourceRows(t *testing.T) {
	src := EdgeList(5, []Edge{{0, 1}, {2, 3}, {4, 4}})
	if src.Rows() != 3 {
		t.Fatalf("Rows = %d, want 3", src.Rows())
	}
	deg := make([]int32, 5)
	if err := src.Part(1, 2).Count(deg); err != nil || fmt.Sprint(deg) != "[0 0 1 1 0]" {
		t.Fatalf("part [1,2) tallied %v err %v", deg, err)
	}
	fill := []int64{0, 0, 0, 1, 0}
	adj := make([]int32, 2)
	src.Part(1, 2).Scatter(fill, adj)
	if fmt.Sprint(adj) != "[3 2]" {
		t.Fatalf("part [1,2) scattered %v", adj)
	}
	if err := src.Part(2, 3).Count(deg); err == nil || err.Error() != "graph: edge 2 is a self-loop at 4" {
		t.Fatalf("part [2,3) err %v", err)
	}
}

// FuzzBuildStripes fuzzes row partitions against the serial reference:
// any (n, p, seed, workers) must build the same graph as the serial
// build.
func FuzzBuildStripes(f *testing.F) {
	f.Add(uint16(100), uint16(50), uint64(1), uint8(4))
	f.Add(uint16(2), uint16(999), uint64(0), uint8(2))
	f.Add(uint16(257), uint16(10), uint64(123), uint8(3))
	f.Fuzz(func(t *testing.T, nRaw, pMille uint16, seed uint64, workersRaw uint8) {
		n := int(nRaw%400) + 1
		p := float64(pMille%1000) / 1000
		workers := int(workersRaw%8) + 1
		ref, err := GnpSeeded(n, p, seed, BuildOpts{})
		if err != nil {
			t.Fatal(err)
		}
		g, err := GnpSeeded(n, p, seed, BuildOpts{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !graphBytesEqual(ref, g) {
			t.Fatalf("n=%d p=%g workers=%d: differs from serial build", n, p, workers)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}
