package graph

import (
	"fmt"
	"math"
	"slices"
	"time"

	"div/internal/rng"
)

// This file holds the seeded random-family builders: the same sampling
// laws as the legacy *rand.Rand builders in random.go, but driven by
// Philox counter streams keyed on the build seed so each graph is a
// pure function of (family parameters, seed) — independent of worker
// count, row partition, and everything else about scheduling — and
// assembled directly into CSR form (BuildCSR, no []Edge detour).
//
// The seed→graph mapping differs from the legacy builders (a PCG
// stream and a keyed Philox stream cannot agree), which is allowed:
// the law is what must not change, and the equivalence tests in
// random_seeded_test.go pin degree distributions and spectral-gap
// estimates of the two generations together (χ²/KS).
//
// How each family parallelizes:
//
//   - Gnp: embarrassingly row-parallel. Vertex row v (its edges to
//     smaller vertices, the Batagelj–Brandes lexicographic order
//     restarted per row) draws from a Counter keyed (seed, v), so any
//     partition of the rows samples identical edges, and sampling runs
//     inside the partitions' count pass.
//   - RandomRegular: configuration-model pairing is a global sequential
//     chain (each pair conditions on the whole history), so sampling is
//     serial on one keyed stream; the CSR assembly of the paired
//     half-edge table is parallel.
//   - WattsStrogatz: rewiring conditions on the evolving edge set and
//     stays serial; assembly is parallel.
//   - BarabasiAlbert: inherently sequential — every attachment draw
//     conditions on all earlier degrees — so sampling is serial on one
//     keyed stream and only the assembly parallelizes.

// GnpSeeded returns G(n,p) as a pure function of (n, p, seed): row v
// samples its edges {w, v} (w < v) by geometric skipping from a Philox
// counter stream keyed (seed, v). The same law as Gnp — restarting the
// skip chain at each row boundary still makes every pair an
// independent Bernoulli(p) — with construction partitioned by rows.
func GnpSeeded(n int, p float64, seed uint64, opts BuildOpts) (*Graph, error) {
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("graph: Gnp probability %v out of [0,1]", p)
	}
	name := fmt.Sprintf("gnp(n=%d,p=%g)", n, p)
	switch {
	case p == 0:
		g, err := BuildCSR(n, EdgeList(n, nil), opts)
		if err != nil {
			return nil, err
		}
		return g.WithName(name), nil
	case p == 1:
		return Complete(n).WithName(name), nil
	}
	g, err := BuildCSR(n, &gnpSource{n: n, p: p, lq: logOneMinus(p), seed: seed}, opts)
	if err != nil {
		return nil, err
	}
	return g.WithName(name), nil
}

// gnpSource emits row v's edges to smaller vertices from the row-keyed
// counter stream, so a row's draws are the same in every partition.
type gnpSource struct {
	n    int
	p    float64
	lq   float64
	seed uint64
}

func (s *gnpSource) Rows() int { return s.n }

// RowCost weighs a row by its one stream seeding plus its expected
// p·v edges: rows [0, r) cost r + p·r(r-1)/2.
func (s *gnpSource) RowCost(r int) float64 {
	return float64(r) + s.p*float64(r)*float64(r-1)/2
}

// Sorted: the skip chain emits each row ascending and every edge is
// owned by its larger endpoint.
func (s *gnpSource) Sorted() bool { return true }

// Part allocates the partition's memo sized to its expected edge count
// (p · #pairs owned, plus four standard deviations of Binomial slack)
// so count-pass appends almost never reallocate.
func (s *gnpSource) Part(lo, hi int) RowPart {
	pairs := (float64(hi)*float64(hi-1) - float64(lo)*float64(lo-1)) / 2
	mean := s.p * pairs
	capHint := int(mean + 4*math.Sqrt(mean) + 16)
	return &gnpPart{src: s, lo: lo, hi: hi, ws: make([]int32, 0, capHint), rowLen: make([]int32, hi-lo)}
}

// gnpPart samples its rows once, in Count, memoizing just the
// neighbour draws — 4 bytes per edge, the owning vertex is implied by
// the per-row lengths — and Scatter replays and frees the memo instead
// of re-running the geometric skip chain.
type gnpPart struct {
	src    *gnpSource
	lo, hi int
	ws     []int32 // neighbour draws, rows lo..hi-1 concatenated
	rowLen []int32 // draws per row
}

func (pt *gnpPart) Count(deg []int32) error {
	seed, lq, ws := pt.src.seed, pt.src.lq, pt.ws
	var c rng.Counter
	for v := max(pt.lo, 1); v < pt.hi; v++ {
		c.Seed(seed, uint64(v))
		w := -1
		var rl int32
		for {
			w += 1 + geometricSkipCounter(&c, lq)
			if w >= v || w < 0 {
				break
			}
			ws = append(ws, int32(w))
			deg[w]++
			rl++
		}
		pt.rowLen[v-pt.lo] = rl
		deg[v] += rl
	}
	pt.ws = ws
	return nil
}

func (pt *gnpPart) Scatter(fill []int64, adj []int32) {
	ws := pt.ws
	for v := pt.lo; v < pt.hi; v++ {
		rl := pt.rowLen[v-pt.lo]
		a := fill[v]
		for _, w := range ws[:rl] {
			adj[a] = w
			a++
			b := fill[w]
			fill[w] = b + 1
			adj[b] = int32(v)
		}
		fill[v] = a
		ws = ws[rl:]
	}
	pt.ws, pt.rowLen = nil, nil
}

// ConnectedGnpSeeded draws GnpSeeded repeatedly until the sample is
// connected, up to maxTries attempts; attempt i builds from
// DeriveSeed(seed, i), so the result is still a pure function of
// (n, p, seed).
func ConnectedGnpSeeded(n int, p float64, seed uint64, maxTries int, opts BuildOpts) (*Graph, error) {
	for i := 0; i < maxTries; i++ {
		g, err := GnpSeeded(n, p, rng.DeriveSeed(seed, uint64(i)), opts)
		if err != nil {
			return nil, err
		}
		if IsConnected(g) {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graph: ConnectedGnp(n=%d,p=%g) not connected after %d tries", n, p, maxTries)
}

// RandomRegularSeeded returns a uniform-ish random d-regular simple
// graph built from a keyed stream: attempt a of the configuration-
// model pairing draws from Stream (seed, a), and the paired half-edge
// table assembles in parallel. The pairing logic is draw-for-draw the
// legacy tryPairing (shuffle, pair-with-retries, restart when stuck)
// with the map dedup replaced by a flat n×d neighbour table —
// TestRandomRegularSeededPairingEquivalence replays the same stream
// through a map-based reference to prove the table changes nothing.
func RandomRegularSeeded(n, d int, seed uint64, opts BuildOpts) (*Graph, error) {
	if d < 0 || d >= n {
		return nil, fmt.Errorf("graph: RandomRegular requires 0 <= d < n, got d=%d n=%d", d, n)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("graph: RandomRegular requires n*d even, got n=%d d=%d", n, d)
	}
	name := fmt.Sprintf("randomRegular(n=%d,d=%d)", n, d)
	if d == 0 {
		g, err := BuildCSR(n, EdgeList(n, nil), opts)
		if err != nil {
			return nil, err
		}
		return g.WithName(name), nil
	}
	const maxAttempts = 1000
	src := &regularTableSource{n: n, d: d}
	src.nbr = make([]int32, n*d)
	src.cnt = make([]int32, n)
	stubs := make([]int32, 0, n*d)
	var s rng.Stream
	for attempt := 0; attempt < maxAttempts; attempt++ {
		start := time.Now()
		s.Seed(seed, uint64(attempt))
		ok := tryPairingTable(n, d, &s, src, stubs)
		opts.observeSample(time.Since(start))
		if !ok {
			continue
		}
		g, err := BuildCSR(n, src, opts)
		if err != nil {
			// Should be impossible: the pairing guarantees simplicity.
			return nil, fmt.Errorf("graph: RandomRegular produced invalid pairing: %w", err)
		}
		return g.WithName(name), nil
	}
	return nil, fmt.Errorf("graph: RandomRegular(n=%d,d=%d) failed after %d attempts", n, d, maxAttempts)
}

// regularTableSource is the paired half-edge table as an EdgeSource:
// row v owns its table entries with larger endpoint, so every edge is
// emitted exactly once.
type regularTableSource struct {
	n, d int
	nbr  []int32 // nbr[v*d : v*d+cnt[v]] = neighbours of v
	cnt  []int32
}

func (s *regularTableSource) Rows() int             { return s.n }
func (s *regularTableSource) RowCost(r int) float64 { return float64(r) }
func (s *regularTableSource) Sorted() bool          { return false }

func (s *regularTableSource) Part(lo, hi int) RowPart {
	return regularPart{s, lo, hi}
}

type regularPart struct {
	s      *regularTableSource
	lo, hi int
}

func (pt regularPart) Count(deg []int32) error {
	s := pt.s
	for v := pt.lo; v < pt.hi; v++ {
		for _, w := range s.nbr[v*s.d : v*s.d+int(s.cnt[v])] {
			if w > int32(v) {
				deg[v]++
				deg[w]++
			}
		}
	}
	return nil
}

func (pt regularPart) Scatter(fill []int64, adj []int32) {
	s := pt.s
	for v := pt.lo; v < pt.hi; v++ {
		for _, w := range s.nbr[v*s.d : v*s.d+int(s.cnt[v])] {
			if w > int32(v) {
				a := fill[v]
				fill[v] = a + 1
				adj[a] = w
				b := fill[w]
				fill[w] = b + 1
				adj[b] = int32(v)
			}
		}
	}
}

// hasNeighbor reports whether w already appears in v's table row: the
// O(d) flat-table replacement for the legacy map dedup, which at
// n = 10⁷ half-edges cost ~1 GB of map overhead against the table's
// 4·n·d bytes that double as the assembly input.
func (s *regularTableSource) hasNeighbor(v, w int32) bool {
	row := s.nbr[int(v)*s.d : int(v)*s.d+int(s.cnt[v])]
	for _, x := range row {
		if x == w {
			return true
		}
	}
	return false
}

func (s *regularTableSource) addEdge(u, v int32) {
	s.nbr[int(u)*s.d+int(s.cnt[u])] = v
	s.cnt[u]++
	s.nbr[int(v)*s.d+int(s.cnt[v])] = u
	s.cnt[v]++
}

// tryPairingTable is one configuration-model pairing attempt driven by
// the keyed stream, recording edges into src's table. The draw
// sequence — Fisher–Yates over the stub list, then repeatedly pair the
// last stub with a random earlier one, retrying conflicts — mirrors
// tryPairing exactly.
func tryPairingTable(n, d int, s *rng.Stream, src *regularTableSource, stubs []int32) bool {
	stubs = stubs[:0]
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, int32(v))
		}
	}
	for i := len(stubs) - 1; i > 0; i-- {
		j := int(s.Uint64n(uint64(i + 1)))
		stubs[i], stubs[j] = stubs[j], stubs[i]
	}
	clear(src.cnt)
	for len(stubs) > 0 {
		u := stubs[len(stubs)-1]
		stubs = stubs[:len(stubs)-1]
		paired := false
		for try := 0; try < 4*len(stubs)+16 && len(stubs) > 0; try++ {
			j := int(s.Uint64n(uint64(len(stubs))))
			v := stubs[j]
			if v == u || src.hasNeighbor(u, v) {
				continue
			}
			stubs[j] = stubs[len(stubs)-1]
			stubs = stubs[:len(stubs)-1]
			src.addEdge(u, v)
			paired = true
			break
		}
		if !paired {
			return false
		}
	}
	return true
}

// WattsStrogatzSeeded returns the small-world graph built from a keyed
// stream: the rewiring pass replays the legacy sequential scan over the
// ring lattice on Stream (seed, 0), and assembly is parallel.
func WattsStrogatzSeeded(n, d int, beta float64, seed uint64, opts BuildOpts) (*Graph, error) {
	if d%2 != 0 || d < 2 || d >= n {
		return nil, fmt.Errorf("graph: WattsStrogatz requires even 2 <= d < n, got d=%d n=%d", d, n)
	}
	if beta < 0 || beta > 1 {
		return nil, fmt.Errorf("graph: WattsStrogatz beta %v out of [0,1]", beta)
	}
	half := d / 2
	edges := make([]Edge, 0, n*half)
	for v := 0; v < n; v++ {
		for s := 1; s <= half; s++ {
			edges = append(edges, Edge{U: v, V: (v + s) % n})
		}
	}
	if beta > 0 {
		start := time.Now()
		rewireLattice(n, half, beta, seed, edges)
		opts.observeSample(time.Since(start))
	}
	g, err := BuildCSR(n, EdgeList(n, edges), opts)
	if err != nil {
		return nil, err
	}
	return g.WithName(fmt.Sprintf("wattsStrogatz(n=%d,d=%d,beta=%g)", n, d, beta)), nil
}

// rewireLattice is the sequential Watts–Strogatz rewiring pass. The
// legacy builder tracked the full edge set in a map; here lattice
// membership is arithmetic (ring distance ≤ half), so only the
// deviations from the lattice — edges removed by rewiring, edges added
// by it — need hashing.
func rewireLattice(n, half int, beta float64, seed uint64, edges []Edge) {
	key := func(u, v int) int64 {
		if u > v {
			u, v = v, u
		}
		return int64(u)<<32 | int64(v)
	}
	isLattice := func(u, v int) bool {
		if u == v {
			return false
		}
		dist := u - v
		if dist < 0 {
			dist = -dist
		}
		if n-dist < dist {
			dist = n - dist
		}
		return dist <= half
	}
	removed := make(map[int64]bool)
	added := make(map[int64]bool)
	member := func(u, v int) bool {
		k := key(u, v)
		return added[k] || (isLattice(u, v) && !removed[k])
	}
	s := rng.NewStream(seed, 0)
	for i := range edges {
		if s.Float64() >= beta {
			continue
		}
		e := edges[i]
		// Rewire the far endpoint to a uniform valid target.
		for try := 0; try < 64; try++ {
			t := int(s.Uint64n(uint64(n)))
			if t == e.U || t == e.V || member(e.U, t) {
				continue
			}
			if k := key(e.U, e.V); added[k] {
				delete(added, k)
			} else {
				removed[k] = true
			}
			if k := key(e.U, t); removed[k] {
				delete(removed, k)
			} else {
				added[k] = true
			}
			edges[i].V = t
			break
		}
	}
}

// BarabasiAlbertSeeded returns the preferential-attachment graph built
// from Stream (seed, 0). Attachment is inherently sequential — each
// arrival's degree-proportional draws condition on every earlier edge
// — so sampling is serial (documented here deliberately; do not try to
// partition it), and only the CSR assembly of the recorded picks
// parallelizes.
func BarabasiAlbertSeeded(n, m int, seed uint64, opts BuildOpts) (*Graph, error) {
	if m < 1 || m+1 > n {
		return nil, fmt.Errorf("graph: BarabasiAlbert requires 1 <= m < n, got m=%d n=%d", m, n)
	}
	start := time.Now()
	m0 := m + 1
	// targets holds one entry per half-edge endpoint, so a uniform draw
	// from it is a degree-proportional draw.
	targets := make([]int32, 0, int64(m0)*int64(m0-1)+2*int64(n-m0)*int64(m))
	for u := 0; u < m0; u++ {
		for v := u + 1; v < m0; v++ {
			targets = append(targets, int32(u), int32(v))
		}
	}
	picks := make([]int32, 0, int64(n-m0)*int64(m))
	s := rng.NewStream(seed, 0)
	chosen := make(map[int32]bool, m)
	row := make([]int32, 0, m)
	for v := m0; v < n; v++ {
		clear(chosen)
		for len(chosen) < m {
			t := targets[int(s.Uint64n(uint64(len(targets))))]
			chosen[t] = true
		}
		// Drain the set in sorted order — the map-iteration determinism
		// fix from the legacy builder; see BarabasiAlbert.
		row = row[:0]
		for t := range chosen {
			row = append(row, t)
		}
		slices.Sort(row)
		for _, t := range row {
			picks = append(picks, t)
			targets = append(targets, int32(v), t)
		}
	}
	opts.observeSample(time.Since(start))
	g, err := BuildCSR(n, baSource{m0: m0, m: m, n: n, picks: picks}, opts)
	if err != nil {
		return nil, err
	}
	return g.WithName(fmt.Sprintf("barabasiAlbert(n=%d,m=%d)", n, m)), nil
}

// baSource is the recorded attachment picks as an EdgeSource: rows
// below m0 own the seed-clique edges to larger clique vertices, row
// v ≥ m0 owns its m attachment edges (targets always predate v). It is
// its own RowPart, restricted to rows [lo, hi).
type baSource struct {
	m0, m, n int
	picks    []int32
	lo, hi   int
}

func (s baSource) Rows() int             { return s.n }
func (s baSource) RowCost(r int) float64 { return float64(r) }
func (s baSource) Sorted() bool          { return false }

func (s baSource) Part(lo, hi int) RowPart {
	s.lo, s.hi = lo, hi
	return s
}

// row returns row v's edge endpoints other than v.
func (s baSource) row(v int, clique []int32) []int32 {
	if v < s.m0 {
		clique = clique[:0]
		for u := v + 1; u < s.m0; u++ {
			clique = append(clique, int32(u))
		}
		return clique
	}
	return s.picks[(v-s.m0)*s.m : (v-s.m0+1)*s.m]
}

func (s baSource) Count(deg []int32) error {
	clique := make([]int32, 0, s.m0)
	for v := s.lo; v < s.hi; v++ {
		for _, t := range s.row(v, clique) {
			deg[v]++
			deg[t]++
		}
	}
	return nil
}

func (s baSource) Scatter(fill []int64, adj []int32) {
	clique := make([]int32, 0, s.m0)
	for v := s.lo; v < s.hi; v++ {
		for _, t := range s.row(v, clique) {
			a := fill[v]
			fill[v] = a + 1
			adj[a] = t
			b := fill[t]
			fill[t] = b + 1
			adj[b] = int32(v)
		}
	}
}
