package graph

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"div/internal/obs"
)

// vertexUnitsOverflowTotal counts graphs whose distinct-degree LCM
// exceeded MaxDegreeLCM, i.e. every time VertexUnits' !ok fallback path
// was taken and the fast vertex-process engine had to be refused.
var vertexUnitsOverflowTotal = obs.Default.Counter("graph_vertex_units_overflow_total")

// MaxDegreeLCM caps the least common multiple of the distinct degrees
// used for exact integer reciprocal-degree weights (units L/d(v)). A
// graph whose degree LCM exceeds the cap gets no vertex units; callers
// (the fast vertex-process engine) must fall back to naive stepping.
const MaxDegreeLCM = int64(1) << 30

// ArcIndex is the shared, immutable arc-level view of a Graph: the
// tail vertex and reverse arc of every directed arc, plus (lazily) the
// exact integer reciprocal-degree weights and the degree buckets used
// by the fast engines' discordant-arc sampling. It is built once per
// Graph and shared by every trial and engine, so per-trial state never
// re-derives O(n+m) structure.
//
// All returned slices alias the index's storage and must be treated as
// read-only.
type ArcIndex struct {
	g     *Graph
	tails []int32 // tail vertex of each directed arc
	rev   []int32 // rev[a] = index of the opposite-direction arc

	unitOnce sync.Once
	units    []int64 // units[v] = lcm/d(v); nil when lcm overflows
	lcm      int64   // lcm of the distinct degrees; 0 when it overflows
	vbucket  []uint8 // vbucket[v] = floor(log2 d(v)); 0 for isolated v
	ones     []int64 // shared all-ones per-vertex weights (edge process)
}

// ArcIndex returns the graph's shared arc index, building it on first
// use. The result is cached on the graph (all WithName copies share
// the cache), so concurrent callers receive the same index.
func (g *Graph) ArcIndex() *ArcIndex {
	cell := g.arc
	if cell == nil {
		// Zero-value Graph (no construction site): nothing to cache on.
		return buildArcIndex(g)
	}
	if ix := cell.Load(); ix != nil {
		return ix
	}
	ix := buildArcIndex(g)
	if cell.CompareAndSwap(nil, ix) {
		return ix
	}
	return cell.Load()
}

// buildArcIndex computes tails and rev in O(n + m) with one serial
// pass that exploits CSR sortedness: scanning arcs in order, the
// canonical arcs (v,w) with v < w arrive, for each fixed w, in
// ascending v — which is exactly the order of w's sorted neighbour
// prefix of heads below w — so one cursor per vertex pairs every arc
// with its reverse. (A row-parallel pass that finds each reverse arc by
// binary search instead measured 2–3× slower in wall time on 2 cores at
// n = 10⁶, so the serial pass is the only one.)
func buildArcIndex(g *Graph) *ArcIndex {
	n := g.N()
	arcs := len(g.adj)
	ix := &ArcIndex{
		g:     g,
		tails: make([]int32, arcs),
		rev:   make([]int32, arcs),
	}
	for v := 0; v < n; v++ {
		for a := g.offsets[v]; a < g.offsets[v+1]; a++ {
			ix.tails[a] = int32(v)
		}
	}
	cursor := make([]int64, n)
	copy(cursor, g.offsets[:n])
	for a := 0; a < arcs; a++ {
		v, w := ix.tails[a], g.adj[a]
		if v < w {
			b := cursor[w]
			cursor[w]++
			ix.rev[a] = int32(b)
			ix.rev[b] = int32(a)
		}
	}
	return ix
}

// Tails returns the tail vertex of each directed arc (read-only).
func (ix *ArcIndex) Tails() []int32 { return ix.tails }

// Rev returns the reverse-arc map: Rev()[a] is the arc with tail and
// head swapped (read-only).
func (ix *ArcIndex) Rev() []int32 { return ix.rev }

// FirstArc returns the index of vertex v's first outgoing arc; v's
// arcs are FirstArc(v)..FirstArc(v)+Degree(v)-1 in Neighbors order.
func (ix *ArcIndex) FirstArc(v int) int64 { return ix.g.offsets[v] }

// buildUnits computes the lazy weight block: degree LCM, per-vertex
// units lcm/d(v), degree buckets, and the shared all-ones weights.
func (ix *ArcIndex) buildUnits() {
	n := ix.g.N()
	ix.ones = make([]int64, n)
	ix.vbucket = make([]uint8, n)
	lcm := int64(1)
	for v := 0; v < n; v++ {
		ix.ones[v] = 1
		d := int64(ix.g.Degree(v))
		if d == 0 {
			continue
		}
		ix.vbucket[v] = uint8(bits.Len64(uint64(d)) - 1)
		if lcm > 0 {
			l := lcm / gcd64(lcm, d) * d
			if l > MaxDegreeLCM || l < 0 {
				lcm = 0 // overflow: no exact vertex units for this graph
			} else {
				lcm = l
			}
		}
	}
	if lcm == 0 || n == 0 {
		if lcm == 0 {
			vertexUnitsOverflowTotal.Inc()
		}
		return
	}
	ix.lcm = lcm
	ix.units = make([]int64, n)
	for v := 0; v < n; v++ {
		if d := int64(ix.g.Degree(v)); d > 0 {
			ix.units[v] = lcm / d
		}
	}
}

// VertexUnits returns the exact integer reciprocal-degree weights for
// vertex-process arc sampling — units[v] = L/d(v) with L the LCM of
// the distinct degrees — together with L itself. ok is false when L
// would exceed MaxDegreeLCM, in which case units is nil and callers
// must fall back to naive stepping. The slice is read-only.
func (ix *ArcIndex) VertexUnits() (units []int64, lcm int64, ok bool) {
	ix.unitOnce.Do(ix.buildUnits)
	return ix.units, ix.lcm, ix.units != nil
}

// UnitOnes returns the shared all-ones per-vertex weights used by the
// edge process (every arc counts 1). The slice is read-only.
func (ix *ArcIndex) UnitOnes() []int64 {
	ix.unitOnce.Do(ix.buildUnits)
	return ix.ones
}

// DegreeBuckets returns per-vertex degree buckets ⌊log2 d(v)⌋, the
// partition behind the bucketed discordant sampler: within bucket b
// every degree lies in [2^b, 2^(b+1)), so the exact unit L/d(v) lies
// in (L/2^(b+1), L/2^b] and rejection against the bound L>>b accepts
// with probability > 1/2. The slice is read-only.
func (ix *ArcIndex) DegreeBuckets() []uint8 {
	ix.unitOnce.Do(ix.buildUnits)
	return ix.vbucket
}

// gcd64 returns the greatest common divisor of a, b > 0.
func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// arcCell is the heap-allocated cache slot for a graph's ArcIndex. It
// lives behind a plain pointer on Graph so WithName's shallow copy
// shares (rather than copies) the atomic value.
type arcCell = atomic.Pointer[ArcIndex]
