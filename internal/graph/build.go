package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"div/internal/obs"
)

// This file is the direct-to-CSR assembler: graphs are built straight
// into their final offsets/adj slabs with no intermediate []Edge. The
// source's rows are split into P contiguous partitions of about equal
// work (EdgeSource.RowCost), and each partition runs the source's own
// count and scatter loops on its own goroutine, in four phases —
//
//	count    each partition tallies the degrees of its edges into a
//	         private per-vertex int32 array
//	offsets  one serial pass over (vertex, partition) sums the tallies
//	         into the offsets and sets each partition's int64 fill
//	         cursors: partition k's arcs at v start where partitions
//	         0..k-1's arcs at v end
//	scatter  each partition replays its edges, writing both arc cells
//	         through its own cursors
//	sort     per-vertex neighbour sort (or verify) + duplicate check,
//	         over P vertex ranges of about equal arc count
//
// No cell is written by two partitions in any phase, so nothing is
// updated atomically. P = min(Workers, maxBuildParts); P = 1 is the
// serial build, on the calling goroutine.
//
// Determinism: vertex v receives its arcs in partition order and,
// within a partition, in row order — the order of a serial scatter,
// whatever P is. A source whose rows emit their neighbours ascending,
// with every edge owned by its larger endpoint (G(n,p)), therefore
// lands sorted at every width and the sort phase only verifies; other
// sources are sorted there. Either way the built graph is byte-identical
// at every width. Errors are selected by row order: the lowest
// partition's first error is the earliest row's error at every width.
//
// Memory: the final CSR, plus a 4-byte tally and then an 8-byte cursor
// per vertex per partition, plus what a source keeps between its two
// passes (G(n,p) memoizes its draws, 4 bytes per edge, so scatter does
// not resample). The tallies are int32 because the count pass's random
// increments run faster on the smaller array; a simple graph's degree
// fits.
//
// Telemetry on obs.Default:
//
//	span_graph_build_sample_nanos   a builder's serial sampling phase
//	                                (pairing, attachment, rewiring);
//	                                G(n,p) samples inside the count pass
//	span_graph_build_count_nanos    count pass wall time
//	span_graph_build_offsets_nanos  offsets pass wall time
//	span_graph_build_scatter_nanos  scatter pass wall time
//	span_graph_build_sort_nanos     sort + dup-check wall time
//	graph_build_parts               partition count of the latest build

var (
	buildSampleTimer  = obs.Default.Timer("graph_build_sample")
	buildCountTimer   = obs.Default.Timer("graph_build_count")
	buildOffsetsTimer = obs.Default.Timer("graph_build_offsets")
	buildScatterTimer = obs.Default.Timer("graph_build_scatter")
	buildSortTimer    = obs.Default.Timer("graph_build_sort")
	buildPartsGauge   = obs.Default.Gauge("graph_build_parts")
)

// maxBuildParts caps the partition count. Each partition keeps a
// 4-byte degree tally per vertex, so the cap bounds the tallies at 16
// bytes per vertex, under a fifth of the CSR of a mean-degree-20 G(n,p)
// (8 bytes per vertex plus 4 per arc). The 8-byte cursors that replace
// them for the scatter cost twice that.
const maxBuildParts = 4

// EdgeSource enumerates the undirected edges of a graph, partitioned
// into rows. BuildCSR splits the rows into contiguous ranges and
// enumerates each range through its own RowPart.
type EdgeSource interface {
	// Rows returns the number of rows the edge set is partitioned into
	// (the vertex count for generated families, the edge count for an
	// edge list).
	Rows() int
	// RowCost returns the relative work of rows [0, r), nondecreasing
	// in r; partitions are balanced by it.
	RowCost(r int) float64
	// Sorted reports whether a row-order scatter leaves every
	// adjacency sorted ascending — true when rows emit their neighbours
	// ascending and every edge is owned by its larger endpoint (then
	// vertex x receives its smaller neighbours, ascending, from its own
	// row before rows x+1, x+2, … append theirs). The sort phase then
	// degrades to a strict-ascending verify that doubles as the
	// duplicate check.
	Sorted() bool
	// Part returns the enumerator of rows [lo, hi).
	Part(lo, hi int) RowPart
}

// RowPart enumerates the edges owned by one contiguous row range, with
// both endpoints validated (in range, no self-loop). BuildCSR calls
// Count and then Scatter, each from a single goroutine; other parts run
// concurrently on disjoint ranges, writing disjoint cells.
type RowPart interface {
	// Count adds 1 to deg[v] and to deg[w] for every owned edge {v, w}.
	// A non-nil error aborts the build; it must be the error of the
	// earliest failing row.
	Count(deg []int32) error
	// Scatter enumerates the same edges in row order, writing both arc
	// cells through the fill cursors: adj[fill[v]] = w and
	// adj[fill[w]] = v, post-incrementing each cursor. Count vetted the
	// rows, so Scatter cannot fail.
	Scatter(fill []int64, adj []int32)
}

// BuildStats reports per-phase wall time for one build. Nanos fields
// accumulate, so one BuildStats can total several builds (retries in
// ConnectedGnp, attempts in RandomRegular).
type BuildStats struct {
	// SampleNanos covers a builder's serial sampling work outside the
	// assembler: configuration-model pairing, preferential attachment,
	// Watts–Strogatz rewiring. Zero for G(n,p), whose sampling runs
	// inside the count pass (the scatter pass replays a memo).
	SampleNanos  int64
	CountNanos   int64
	OffsetsNanos int64
	ScatterNanos int64
	SortNanos    int64
	// Parts is the partition count of the last build.
	Parts int
}

// TotalNanos returns the summed wall time of all phases.
func (s *BuildStats) TotalNanos() int64 {
	return s.SampleNanos + s.CountNanos + s.OffsetsNanos + s.ScatterNanos + s.SortNanos
}

// BuildOpts tunes the assembler. The zero value builds serially on the
// calling goroutine, which is also the NewFromEdges configuration.
type BuildOpts struct {
	// Workers is the parallelism hint: the build runs
	// min(Workers, maxBuildParts) partitions concurrently, and ≤ 1
	// builds serially. The built graph is identical either way.
	Workers int
	// Stats, when non-nil, accumulates per-phase timings.
	Stats *BuildStats
}

// stats returns the BuildStats to accumulate into: the caller's, or a
// discarded one.
func (o BuildOpts) stats() *BuildStats {
	if o.Stats != nil {
		return o.Stats
	}
	return new(BuildStats)
}

// observe records one phase's wall time on its timer and in sum.
func observe(t *obs.Timer, sum *int64, d time.Duration) {
	t.Observe(d)
	*sum += d.Nanoseconds()
}

// observeSample records a builder's serial sampling phase.
func (o BuildOpts) observeSample(d time.Duration) {
	observe(buildSampleTimer, &o.stats().SampleNanos, d)
}

// EdgeList returns the EdgeSource view of an explicit edge list: row i
// owns edges[i], validated against vertex count n on emission with
// NewFromEdges's error reporting.
func EdgeList(n int, edges []Edge) EdgeSource {
	return edgeListSource{n: n, edges: edges}
}

// edgeListSource is its own RowPart: a part is the sub-list, with base
// keeping the edge indices in error messages global.
type edgeListSource struct {
	n     int
	edges []Edge
	base  int
}

func (s edgeListSource) Rows() int             { return len(s.edges) }
func (s edgeListSource) RowCost(r int) float64 { return float64(r) }
func (s edgeListSource) Sorted() bool          { return false }

func (s edgeListSource) Part(lo, hi int) RowPart {
	return edgeListSource{n: s.n, edges: s.edges[lo:hi], base: s.base + lo}
}

func (s edgeListSource) Count(deg []int32) error {
	for i, e := range s.edges {
		if e.U < 0 || e.U >= s.n || e.V < 0 || e.V >= s.n {
			return fmt.Errorf("graph: edge %d (%d,%d) out of range [0,%d)", s.base+i, e.U, e.V, s.n)
		}
		if e.U == e.V {
			return fmt.Errorf("graph: edge %d is a self-loop at %d", s.base+i, e.U)
		}
		deg[e.U]++
		deg[e.V]++
	}
	return nil
}

func (s edgeListSource) Scatter(fill []int64, adj []int32) {
	for _, e := range s.edges {
		a := fill[e.U]
		fill[e.U] = a + 1
		adj[a] = int32(e.V)
		b := fill[e.V]
		fill[e.V] = b + 1
		adj[b] = int32(e.U)
	}
}

// forParts runs fn(k) for every k in [0, parts) concurrently — k = 0 on
// the calling goroutine — and returns the wall time.
func forParts(parts int, fn func(k int)) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for k := 1; k < parts; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(k)
		}()
	}
	fn(0)
	wg.Wait()
	return time.Since(start)
}

// splitRows returns the parts+1 boundaries of a split of [0, rows) into
// contiguous ranges of about equal cost, where cost(r) is the
// nondecreasing cost of rows [0, r).
func splitRows(rows, parts int, cost func(r int) float64) []int {
	b := make([]int, parts+1)
	total := cost(rows)
	for k := 1; k < parts; k++ {
		target := total * float64(k) / float64(parts)
		b[k] = sort.Search(rows, func(r int) bool { return cost(r) >= target })
	}
	b[parts] = rows
	return b
}

// BuildCSR assembles a Graph with n vertices directly into CSR form
// from the edges src enumerates. The result carries no name; builders
// label it with WithName. See the file comment for the phase plan and
// the determinism argument.
func BuildCSR(n int, src EdgeSource, opts BuildOpts) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	rows := src.Rows()
	parts := max(min(opts.Workers, maxBuildParts, rows), 1)
	stats := opts.stats()
	stats.Parts = parts
	buildPartsGauge.Set(int64(parts))

	// Count: each partition tallies its edges' degrees privately.
	bounds := splitRows(rows, parts, src.RowCost)
	runs := make([]RowPart, parts)
	tallies := make([][]int32, parts)
	errs := make([]error, parts)
	d := forParts(parts, func(k int) {
		runs[k] = src.Part(bounds[k], bounds[k+1])
		tallies[k] = make([]int32, n)
		errs[k] = runs[k].Count(tallies[k])
	})
	observe(buildCountTimer, &stats.CountNanos, d)
	if err := cmp.Or(errs...); err != nil { // the lowest partition's error
		return nil, err
	}

	// Offsets: partition k's cursor at v is offsets[v] plus the arcs
	// partitions 0..k-1 hold at v.
	start := time.Now()
	offsets := make([]int64, n+1)
	curs := make([][]int64, parts)
	for k := range curs {
		curs[k] = make([]int64, n)
	}
	var run int64
	for v := 0; v < n; v++ {
		for k, t := range tallies {
			curs[k][v] = run
			run += int64(t[v])
		}
		offsets[v+1] = run
	}
	tallies = nil // free before the arc slab is allocated
	observe(buildOffsetsTimer, &stats.OffsetsNanos, time.Since(start))

	// Scatter: every partition writes only through its own cursors,
	// into cells no other partition owns.
	adj := make([]int32, run)
	d = forParts(parts, func(k int) { runs[k].Scatter(curs[k], adj) })
	observe(buildScatterTimer, &stats.ScatterNanos, d)

	// Sort: per-vertex sort (skipped for a Sorted source) and a strict-
	// ascending check — equality is a duplicate edge. The last
	// partition's cursors must have reached the end of every row, or the
	// source's two passes disagreed and the slab holds garbage.
	sorted := src.Sorted()
	last := curs[parts-1]
	vb := splitRows(n, parts, func(v int) float64 { return float64(offsets[v]) + float64(v) })
	d = forParts(parts, func(k int) {
		for v := vb[k]; v < vb[k+1]; v++ {
			if last[v] != offsets[v+1] {
				panic(fmt.Sprintf("graph: edge source scatter disagrees with its count at vertex %d", v))
			}
			nb := adj[offsets[v]:offsets[v+1]]
			if !sorted {
				slices.Sort(nb)
			}
			for i := 1; i < len(nb); i++ {
				if nb[i] <= nb[i-1] {
					errs[k] = fmt.Errorf("graph: duplicate edge (%d,%d)", v, nb[i])
					return
				}
			}
		}
	})
	observe(buildSortTimer, &stats.SortNanos, d)
	if err := cmp.Or(errs...); err != nil { // the lowest partition's error
		return nil, err
	}

	return &Graph{offsets: offsets, adj: adj, arc: new(arcCell)}, nil
}
