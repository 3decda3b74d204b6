package cli

import (
	"fmt"
	"strings"
	"testing"

	"div/internal/baseline"
	"div/internal/core"
	"div/internal/graph"
)

func TestParseGraphFamilies(t *testing.T) {
	tests := []struct {
		spec  string
		wantN int
		wantM int // -1 to skip
	}{
		{"complete:6", 6, 15},
		{"path:9", 9, 8},
		{"cycle:7", 7, 7},
		{"star:5", 5, 4},
		{"hypercube:3", 8, 12},
		{"torus:3,4", 12, 24},
		{"grid:2,3", 6, 7},
		{"binarytree:7", 7, 6},
		{"barbell:3,1", 7, 8},
		{"regular:20,3", 20, 30},
		{"gnp:30,0.4", 30, -1},
		{"ws:20,4,0.1", 20, 40},
		{"ba:25,2", 25, -1},
		{"circulant:10,1+2", 10, 20},
	}
	for _, tc := range tests {
		t.Run(tc.spec, func(t *testing.T) {
			g, err := ParseGraph(tc.spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			if g.N() != tc.wantN {
				t.Errorf("N = %d, want %d", g.N(), tc.wantN)
			}
			if tc.wantM >= 0 && g.M() != tc.wantM {
				t.Errorf("M = %d, want %d", g.M(), tc.wantM)
			}
		})
	}
}

func TestParseTopologyFamilies(t *testing.T) {
	tests := []struct {
		spec    string
		wantN   int
		wantSum int64
	}{
		{"complete:6", 6, 30},
		{"cycle:7", 7, 14},
		{"path:9", 9, 16},
		{"torus:3,4", 12, 48},
		{"hypercube:3", 8, 24},
		{"circulant:10,1+2", 10, 40},
		{"hashedregular:64,4", 64, 256},
	}
	for _, tc := range tests {
		t.Run(tc.spec, func(t *testing.T) {
			topo, err := ParseTopology(tc.spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			if topo.N() != tc.wantN {
				t.Errorf("N = %d, want %d", topo.N(), tc.wantN)
			}
			if topo.DegreeSum() != tc.wantSum {
				t.Errorf("DegreeSum = %d, want %d", topo.DegreeSum(), tc.wantSum)
			}
		})
	}
}

// TestParseTopologyMatchesParseGraph pins that a spec names the same
// structure whichever parser handles it: the implicit topology's
// materialization equals the ParseGraph CSR edge for edge.
func TestParseTopologyMatchesParseGraph(t *testing.T) {
	for _, spec := range []string{
		"complete:6", "cycle:7", "path:9", "torus:3,4", "hypercube:3", "circulant:10,1+2",
	} {
		t.Run(spec, func(t *testing.T) {
			topo, err := ParseTopology(spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			g, err := ParseGraph(spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			twin := graph.MustMaterialize(topo)
			et, eg := twin.Edges(), g.Edges()
			if len(et) != len(eg) {
				t.Fatalf("edge count %d vs %d", len(et), len(eg))
			}
			for i := range et {
				if et[i] != eg[i] {
					t.Fatalf("edge %d: %v vs %v", i, et[i], eg[i])
				}
			}
		})
	}
}

func TestParseTopologySeedKeyed(t *testing.T) {
	a, err := ParseTopology("hashedregular:128,6", 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseTopology("hashedregular:128,6", 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ParseTopology("hashedregular:128,6", 8)
	if err != nil {
		t.Fatal(err)
	}
	same, diff := true, true
	for v := 0; v < 128; v++ {
		for i := 0; i < 6; i++ {
			if a.Neighbor(v, i) != b.Neighbor(v, i) {
				same = false
			}
			if a.Neighbor(v, i) != c.Neighbor(v, i) {
				diff = false
			}
		}
	}
	if !same {
		t.Error("same seed must name the same hashed-regular matching")
	}
	if diff {
		t.Error("different seeds should name different matchings")
	}
}

func TestParseTopologyErrors(t *testing.T) {
	for _, spec := range []string{
		"", "bogus:5", "star:5", "regular:20,3", "gnp:30,0.4",
		"complete:", "complete:x", "torus:3", "circulant:10", "circulant:10,a",
		"hashedregular:64", "hashedregular:63,4", "hashedregular:64,64",
	} {
		if _, err := ParseTopology(spec, 1); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestParseGraphErrors(t *testing.T) {
	for _, spec := range []string{
		"", "bogus:5", "complete:", "complete:x", "torus:3", "regular:5,3",
		"gnp:10", "circulant:10", "circulant:10,a",
	} {
		if _, err := ParseGraph(spec, 1); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
	// Out-of-range parameters of families with an implicit backend are
	// errors naming the bad field, not builder panics.
	for spec, field := range map[string]string{
		"circulant:10,0":   "stride 0",
		"circulant:10,1+1": "duplicate stride 1",
		"circulant:2,1":    "n >= 3",
		"hypercube:40":     "dimension 40",
		"hypercube:0":      "dimension 0",
		"torus:2,5":        "rows,cols >= 3",
		"cycle:2":          "n >= 3",
		"complete:1":       "n >= 2",
		"path:-4":          "n >= 2",
	} {
		_, err := ParseGraph(spec, 1)
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("spec %q: err = %v, want one naming %q", spec, err, field)
		}
	}
}

// TestParseGraphTopologyAgree: for every family with both backends,
// ParseGraph and ParseTopology accept and reject the same specs, and
// an accepted spec names the same edge set.
func TestParseGraphTopologyAgree(t *testing.T) {
	for _, spec := range []string{
		"complete:1", "complete:2", "complete:7", "path:1", "path:2", "path:0",
		"cycle:2", "cycle:3", "torus:2,3", "torus:3,3", "torus:4,3",
		"hypercube:0", "hypercube:1", "hypercube:5", "hypercube:26", "hypercube:40",
		"circulant:10,0", "circulant:10,5", "circulant:10,4", "circulant:9,1+4",
		"circulant:9,2+2", "circulant:10,11", "circulant:3,1", "circulant:2,1",
	} {
		topo, terr := ParseTopology(spec, 1)
		g, gerr := ParseGraph(spec, 1)
		if (terr == nil) != (gerr == nil) {
			t.Errorf("%s: ParseTopology err = %v, ParseGraph err = %v", spec, terr, gerr)
			continue
		}
		if terr != nil {
			if terr.Error() != gerr.Error() {
				t.Errorf("%s: errors differ: %q vs %q", spec, terr, gerr)
			}
			continue
		}
		et, eg := graph.MustMaterialize(topo).Edges(), g.Edges()
		if fmt.Sprint(et) != fmt.Sprint(eg) {
			t.Errorf("%s: implicit and materialized edge sets differ", spec)
		}
	}
}

func TestParseGraphDeterministic(t *testing.T) {
	a, err := ParseGraph("regular:30,4", 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseGraph("regular:30,4", 42)
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("same seed, different graph")
		}
	}
}

func TestParseRule(t *testing.T) {
	tests := []struct {
		in   string
		want string
	}{
		{"div", "div"}, {"", "div"}, {"pull", "pull"},
		{"median", "median"}, {"bestof3", "best-of-3"},
		{"loadbalance", "loadbalance"}, {"lb", "loadbalance"},
		{"DIV", "div"},
	}
	for _, tc := range tests {
		r, err := ParseRule(tc.in)
		if err != nil {
			t.Errorf("ParseRule(%q): %v", tc.in, err)
			continue
		}
		if r.Name() != tc.want {
			t.Errorf("ParseRule(%q) = %q, want %q", tc.in, r.Name(), tc.want)
		}
	}
	if _, err := ParseRule("bogus"); err == nil {
		t.Error("bogus rule accepted")
	}
	if _, err := ParseRule("bestofx"); err == nil {
		t.Error("bestofx accepted")
	}
	if r, _ := ParseRule("bestof5"); r.(baseline.BestOfK).K != 5 {
		t.Error("bestof5 K wrong")
	}
}

func TestParseProcess(t *testing.T) {
	if p, err := ParseProcess("vertex"); err != nil || p != core.VertexProcess {
		t.Error("vertex parse failed")
	}
	if p, err := ParseProcess(""); err != nil || p != core.VertexProcess {
		t.Error("default parse failed")
	}
	if p, err := ParseProcess("edge"); err != nil || p != core.EdgeProcess {
		t.Error("edge parse failed")
	}
	if _, err := ParseProcess("both"); err == nil {
		t.Error("bogus process accepted")
	}
}
