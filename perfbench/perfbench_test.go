package main

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the catalog")

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := make(map[string]bool)
	check := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q does not match %s", name, nameRE)
		}
		if !unitRE.MatchString(unit) {
			t.Errorf("metric %s: unit %q does not match %s", name, unit, unitRE)
		}
		if seen[name] {
			t.Errorf("metric name %q used twice", name)
		}
		seen[name] = true
	}
	for _, m := range endToEnd {
		check(m.Name, m.Unit)
	}
	for _, m := range layers {
		check(m.Name, m.Unit)
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why (%d chars)", w.Name, len(w.Why))
		}
	}
}

func TestLayerMetricsNameTheirEndToEndMetricAndWorkload(t *testing.T) {
	e2e := make(map[string]bool)
	for _, m := range endToEnd {
		e2e[m.Name] = true
	}
	for _, l := range layers {
		if !e2e[l.Moves] {
			t.Errorf("%s moves %q, which is not an end-to-end metric", l.Name, l.Moves)
		}
		if len(l.Workloads) == 0 {
			t.Errorf("%s names no workload", l.Name)
		}
		for _, w := range l.Workloads {
			if _, ok := workloadByName(w); !ok {
				t.Errorf("%s names unknown workload %q", l.Name, w)
			}
		}
	}
}

// benchmarkFile is the BENCHMARK.json layout.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// catalogFile renders the catalog as BENCHMARK.json.
func catalogFile() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: 25,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		}{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, l := range layers {
		f.PerLayer = append(f.PerLayer, struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		}{l.Name, l.Unit, l.Better})
	}
	return f
}

func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	want := catalogFile()
	if *update {
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../BENCHMARK.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json differs from the catalog; rerun with -update")
	}
	var setup float64
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	for _, m := range endToEnd {
		if m.Bound > setup {
			t.Errorf("%s: bound %v exceeds setup_s's %v", m.Name, m.Bound, setup)
		}
	}
}

// TestSmoke runs every workload at smoke size, untraced and traced,
// twice with one seed and once with another: each run must pass its
// correctness checks, report every metric, and repeat its work counts
// exactly under the same seed.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				var counts [][2]int64
				for _, seed := range []uint64{7, 7, 8} {
					o := runOpts{seed: seed, seconds: 1, smoke: true}
					if traced {
						o.tr = newTracer()
					}
					out, err := w.Run(o)
					if err != nil {
						t.Fatalf("traced=%v seed %d: %v", traced, seed, err)
					}
					if out.attempted == 0 || out.failed != 0 {
						t.Fatalf("traced=%v seed %d: %d of %d checks failed: %v", traced, seed, out.failed, out.attempted, out.problems)
					}
					if out.steps <= 0 || out.trials <= 0 {
						t.Fatalf("traced=%v seed %d: work steps=%d trials=%d", traced, seed, out.steps, out.trials)
					}
					if _, missing := reportable(out.metrics, traced); len(missing) > 0 {
						t.Fatalf("traced=%v seed %d: missing %v", traced, seed, missing)
					}
					for name := range out.metrics {
						if unitOf(name) == "" {
							t.Errorf("reported metric %q is not in the catalog", name)
						}
					}
					counts = append(counts, [2]int64{out.steps, out.trials})
				}
				if counts[0] != counts[1] {
					t.Errorf("traced=%v: work counts %v and %v differ under one seed", traced, counts[0], counts[1])
				}
			}
		})
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past root
		{ID: 5, Parent: 2, Name: "d", Start: 20, End: -1},  // never closed
	}
	self := make(map[string]int64)
	for _, s := range tr.finish() {
		self[s.Name] = s.SelfNs
	}
	want := map[string]int64{"root": 100 - 50 - 10, "a": 30, "b": 30, "c": 30}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max quantile = %v, want 4", got)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}
