package graph

import (
	"math/bits"
	"testing"

	"div/internal/rng"
)

func arcIndexGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	rr, err := RandomRegular(14, 4, rng.New(0xa1))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Graph{
		"path":     Path(9),
		"cycle":    Cycle(12),
		"complete": Complete(8),
		"star":     Star(11),
		"regular":  rr,
	}
}

// TestArcIndexStructure checks tails and rev against the CSR layout:
// tails follow the offset table, rev is an involution that swaps tail
// and head, and FirstArc agrees with Neighbors order.
func TestArcIndexStructure(t *testing.T) {
	for name, g := range arcIndexGraphs(t) {
		ix := g.ArcIndex()
		tails, rev, adj := ix.Tails(), ix.Rev(), g.Arcs()
		if len(tails) != len(adj) || len(rev) != len(adj) {
			t.Fatalf("%s: index sizes tails=%d rev=%d, want %d", name, len(tails), len(rev), len(adj))
		}
		for v := 0; v < g.N(); v++ {
			base := ix.FirstArc(v)
			nb := g.Neighbors(v)
			for i, w := range nb {
				a := base + int64(i)
				if tails[a] != int32(v) || adj[a] != w {
					t.Fatalf("%s: arc %d is (%d→%d), want (%d→%d)", name, a, tails[a], adj[a], v, w)
				}
			}
		}
		for a := range adj {
			r := rev[a]
			if rev[r] != int32(a) {
				t.Fatalf("%s: rev not an involution at arc %d", name, a)
			}
			if tails[r] != adj[a] || adj[r] != tails[a] {
				t.Fatalf("%s: rev[%d]=%d is (%d→%d), want (%d→%d)",
					name, a, r, tails[r], adj[r], adj[a], tails[a])
			}
		}
	}
}

// TestArcIndexShared: the index is built once per graph and shared by
// WithName copies, and ArcTails is a read-only view of its storage.
func TestArcIndexShared(t *testing.T) {
	g := Cycle(10)
	ix := g.ArcIndex()
	if g.ArcIndex() != ix {
		t.Error("second ArcIndex call rebuilt the index")
	}
	if g.WithName("renamed").ArcIndex() != ix {
		t.Error("WithName copy does not share the arc index")
	}
	tails := g.ArcTails()
	if &tails[0] != &ix.Tails()[0] {
		t.Error("ArcTails does not alias the shared index storage")
	}
}

// TestVertexUnits: units[v]·d(v) = L for every vertex, with L exactly
// the LCM of the distinct degrees.
func TestVertexUnits(t *testing.T) {
	for name, g := range arcIndexGraphs(t) {
		units, lcm, ok := g.ArcIndex().VertexUnits()
		if !ok {
			t.Fatalf("%s: vertex units unavailable", name)
		}
		want := int64(1)
		for v := 0; v < g.N(); v++ {
			d := int64(g.Degree(v))
			want = want / gcd64(want, d) * d
		}
		if lcm != want {
			t.Errorf("%s: lcm=%d, want %d", name, lcm, want)
		}
		for v := 0; v < g.N(); v++ {
			if got := units[v] * int64(g.Degree(v)); got != lcm {
				t.Errorf("%s: units[%d]·d = %d, want %d", name, v, got, lcm)
			}
		}
	}
}

// TestVertexUnitsOverflow: a degree sequence of many distinct primes
// pushes the LCM over MaxDegreeLCM; the index must report !ok rather
// than wrap, while the edge process's all-ones weights stay available.
func TestVertexUnitsOverflow(t *testing.T) {
	// Caterpillar spine with prime-ish degrees: lcm(3,5,…,47) > 2^30.
	primes := []int{3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
	var edges []Edge
	next := len(primes)
	for i, want := range primes {
		if i > 0 {
			edges = append(edges, Edge{U: i - 1, V: i})
		}
		have := 0
		if i > 0 {
			have++
		}
		if i < len(primes)-1 {
			have++
		}
		for have < want {
			edges = append(edges, Edge{U: i, V: next})
			next++
			have++
		}
	}
	g := MustFromEdges(next, edges)
	if units, lcm, ok := g.ArcIndex().VertexUnits(); ok || units != nil || lcm != 0 {
		t.Errorf("expected lcm overflow, got units=%v lcm=%d ok=%v", units != nil, lcm, ok)
	}
	ones := g.ArcIndex().UnitOnes()
	if len(ones) != g.N() {
		t.Fatalf("UnitOnes length %d, want %d", len(ones), g.N())
	}
	for v, u := range ones {
		if u != 1 {
			t.Fatalf("UnitOnes[%d] = %d, want 1", v, u)
		}
	}
}

// TestVertexUnitsOverflowCirculant: the overflow fallback exercised on
// an implicit-family graph rather than a bespoke caterpillar — an
// implicit circulant is materialized, then pendant chains push a prefix
// of its vertices to distinct prime degrees whose LCM exceeds the cap.
// The !ok path must also be visible in obs: the shared registry's
// graph_vertex_units_overflow_total counter advances exactly once per
// graph (the units block is built under a sync.Once).
func TestVertexUnitsOverflowCirculant(t *testing.T) {
	topo, err := NewImplicitCirculant(16, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	base := MustMaterialize(topo)
	// lcm(4, 5, 7, 11, …, 47) > 2^30: every circulant vertex starts at
	// degree 4; pendants raise vertex i to primes[i].
	primes := []int{5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
	edges := base.Edges()
	next := base.N()
	for i, want := range primes {
		for have := base.Degree(i); have < want; have++ {
			edges = append(edges, Edge{U: i, V: next})
			next++
		}
	}
	g := MustFromEdges(next, edges)

	counter := vertexUnitsOverflowTotal
	before := counter.Value()
	units, lcm, ok := g.ArcIndex().VertexUnits()
	if ok || units != nil || lcm != 0 {
		t.Errorf("expected lcm overflow, got units=%v lcm=%d ok=%v", units != nil, lcm, ok)
	}
	if got := counter.Value(); got != before+1 {
		t.Errorf("overflow counter advanced by %d, want 1", got-before)
	}
	// Repeat lookups reuse the once-built block: no double count.
	g.ArcIndex().VertexUnits()
	if got := counter.Value(); got != before+1 {
		t.Errorf("overflow counter advanced again on cached lookup: %d", got-before)
	}
	// The edge process's all-ones weights survive the overflow.
	for v, u := range g.ArcIndex().UnitOnes() {
		if u != 1 {
			t.Fatalf("UnitOnes[%d] = %d, want 1", v, u)
		}
	}
	// A pure circulant (regular, single degree) must NOT trip the
	// fallback: its LCM is just the degree.
	if _, lcm, ok := base.ArcIndex().VertexUnits(); !ok || lcm != 4 {
		t.Errorf("circulant units: lcm=%d ok=%v, want lcm=4 ok=true", lcm, ok)
	}
	if got := counter.Value(); got != before+1 {
		t.Errorf("non-overflowing circulant moved the counter: %d", got-before)
	}
}

// TestDegreeBuckets: vbucket[v] = ⌊log2 d(v)⌋, so units within a bucket
// stay within a factor 2 of the bucket bound L>>b.
func TestDegreeBuckets(t *testing.T) {
	for name, g := range arcIndexGraphs(t) {
		ix := g.ArcIndex()
		vb := ix.DegreeBuckets()
		units, lcm, ok := ix.VertexUnits()
		if !ok {
			t.Fatalf("%s: vertex units unavailable", name)
		}
		for v := 0; v < g.N(); v++ {
			d := g.Degree(v)
			if want := uint8(bits.Len64(uint64(d)) - 1); vb[v] != want {
				t.Errorf("%s: bucket[%d] = %d for degree %d, want %d", name, v, vb[v], d, want)
			}
			ub := lcm >> uint(vb[v])
			if units[v] > ub || 2*units[v] <= ub {
				t.Errorf("%s: unit[%d] = %d outside (%d/2, %d]", name, v, units[v], ub, ub)
			}
		}
	}
}

// TestIsComplete: the arc-count criterion 2m = n(n-1) holds exactly for
// complete graphs (a simple graph meeting it must have every degree at
// its maximum).
func TestIsComplete(t *testing.T) {
	for _, n := range []int{2, 3, 8} {
		if !Complete(n).IsComplete() {
			t.Errorf("Complete(%d).IsComplete() = false", n)
		}
	}
	for name, g := range map[string]*Graph{
		"path":  Path(5),
		"star":  Star(6),
		"cycle": Cycle(3) /* K_3 as cycle */} {
		want := name == "cycle"
		if got := g.IsComplete(); got != want {
			t.Errorf("%s.IsComplete() = %v, want %v", name, got, want)
		}
	}
}
