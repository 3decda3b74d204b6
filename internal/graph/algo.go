package graph

import (
	"fmt"
	"math/bits"
	"sync"
)

// BFS performs a breadth-first search from src and returns the distance
// (in edges) to every vertex, with -1 for unreachable vertices.
func BFS(g *Graph, src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int32, 0, g.N())
	queue = append(queue, int32(src))
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(int(v)) {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// connScratch is the reusable state behind IsConnected: a visited
// bitset (1 bit/vertex instead of BFS's 8-byte distance) and a queue
// slab, pooled so ConnectedGnp's retry loop at n = 10⁶–10⁷ probes each
// candidate without churning ~80 MB of heap per attempt.
type connScratch struct {
	visited []uint64
	queue   []int32
}

var connPool = sync.Pool{New: func() any { return &connScratch{} }}

// Direction-switch thresholds of the connectivity BFS (Beamer, Asanović
// and Patterson's α and β): go bottom-up once the frontier's arcs exceed
// 1/bfsAlpha of the unvisited vertices' arcs, and back top-down once
// the frontier holds fewer than n/bfsBeta vertices.
const (
	bfsAlpha = 14
	bfsBeta  = 24
)

// IsConnected reports whether g is connected. The empty graph and the
// single vertex are connected by convention. Scratch state is pooled
// and reused across calls, so steady-state invocations do not
// allocate.
func IsConnected(g *Graph) bool {
	ok, _ := isConnected(g)
	return ok
}

// isConnected is a direction-optimizing BFS from vertex 0 that also
// reports how many bottom-up sweeps it ran. Top-down steps expand the
// frontier's arcs. A bottom-up sweep instead scans every unvisited
// vertex for a visited neighbour, stopping at the first — far fewer
// arc reads once the frontier covers a good share of an expander. A
// sweep leaves no visited vertex with an unvisited neighbour except
// among those it marked itself, so the vertices it marked are the next
// frontier.
func isConnected(g *Graph) (connected bool, sweeps int) {
	n := g.N()
	if n <= 1 {
		return true, 0
	}
	sc := connPool.Get().(*connScratch)
	defer connPool.Put(sc)
	words := (n + 63) / 64
	if cap(sc.visited) < words {
		sc.visited = make([]uint64, words)
	}
	visited := sc.visited[:words]
	clear(visited)
	if cap(sc.queue) < n {
		sc.queue = make([]int32, n)
	}
	queue := sc.queue[:n]
	seen := func(w int32) bool { return visited[w>>6]&(1<<(uint(w)&63)) != 0 }

	visited[0] |= 1
	queue[0] = 0
	head, tail := 0, 1
	frontierArcs := int64(g.Degree(0))
	unvisitedArcs := g.DegreeSum() - frontierArcs
	bottomUp := false
	for head < tail && tail < n {
		if bottomUp {
			bottomUp = tail-head >= n/bfsBeta
		} else {
			bottomUp = frontierArcs > unvisitedArcs/bfsAlpha
		}
		frontierArcs = 0
		if bottomUp {
			sweeps++
			head = tail
			for i, word := range visited {
				for free := ^word; free != 0; free &= free - 1 {
					v := i<<6 | bits.TrailingZeros64(free)
					if v >= n {
						break
					}
					for _, w := range g.Neighbors(v) {
						if seen(w) {
							visited[i] |= 1 << (uint(v) & 63)
							queue[tail] = int32(v)
							tail++
							frontierArcs += int64(g.Degree(v))
							break
						}
					}
				}
			}
		} else {
			for end := tail; head < end; head++ {
				for _, w := range g.Neighbors(int(queue[head])) {
					if !seen(w) {
						visited[w>>6] |= 1 << (uint(w) & 63)
						queue[tail] = w
						tail++
						frontierArcs += int64(g.Degree(int(w)))
					}
				}
			}
		}
		unvisitedArcs -= frontierArcs
	}
	return tail == n, sweeps
}

// Components returns the connected components of g as vertex lists,
// ordered by smallest contained vertex.
func Components(g *Graph) [][]int {
	seen := make([]bool, g.N())
	var comps [][]int
	for s := 0; s < g.N(); s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int32{int32(s)}
		seen[s] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, int(v))
			for _, w := range g.Neighbors(int(v)) {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// Eccentricity returns the maximum BFS distance from v to any reachable
// vertex, or an error if some vertex is unreachable.
func Eccentricity(g *Graph, v int) (int, error) {
	dist := BFS(g, v)
	ecc := 0
	for u, d := range dist {
		if d == -1 {
			return 0, fmt.Errorf("graph: vertex %d unreachable from %d", u, v)
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc, nil
}

// Diameter returns the exact diameter by running a BFS from every
// vertex: O(n·m). Intended for the modest sizes used in tests and
// reports, not for the largest simulations.
func Diameter(g *Graph) (int, error) {
	diam := 0
	for v := 0; v < g.N(); v++ {
		ecc, err := Eccentricity(g, v)
		if err != nil {
			return 0, err
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam, nil
}

// IsBipartite reports whether g is 2-colourable. Bipartite graphs make
// the random walk periodic (λ_n = -1), violating the paper's
// aperiodicity assumption.
func IsBipartite(g *Graph) bool {
	color := make([]int8, g.N()) // 0 unseen, 1/2 sides
	for s := 0; s < g.N(); s++ {
		if color[s] != 0 {
			continue
		}
		color[s] = 1
		stack := []int32{int32(s)}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Neighbors(int(v)) {
				if color[w] == 0 {
					color[w] = 3 - color[v]
					stack = append(stack, w)
				} else if color[w] == color[v] {
					return false
				}
			}
		}
	}
	return true
}

// DegreeStats summarizes the degree sequence of a graph.
type DegreeStats struct {
	Min, Max int
	Mean     float64
	// PiMin and PiMax are the extreme stationary probabilities
	// π_v = d(v)/2m; the paper assumes π_min = Θ(1/n).
	PiMin, PiMax float64
}

// Degrees computes degree statistics. The graph must have at least one
// edge for the stationary fields to be meaningful.
func Degrees(g *Graph) DegreeStats {
	s := DegreeStats{Min: g.MinDegree(), Max: g.MaxDegree()}
	if g.N() > 0 {
		s.Mean = float64(g.DegreeSum()) / float64(g.N())
	}
	if g.M() > 0 {
		total := float64(g.DegreeSum())
		s.PiMin = float64(s.Min) / total
		s.PiMax = float64(s.Max) / total
	}
	return s
}

// Triangles returns the number of triangles in g, counted once each.
// O(Σ_v d(v)²) via neighbourhood intersection; fine for test sizes.
func Triangles(g *Graph) int64 {
	var count int64
	for v := 0; v < g.N(); v++ {
		nb := g.Neighbors(v)
		for i, u := range nb {
			if int(u) <= v {
				continue
			}
			for _, w := range nb[i+1:] {
				if g.HasEdge(int(u), int(w)) {
					count++
				}
			}
		}
	}
	return count
}
