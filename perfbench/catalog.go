package main

// This file is the benchmark's metric catalog: the end-to-end metrics
// an untraced run reports, with the regression bound each carries, and
// the per-layer metrics a traced run reports, each tied to the
// end-to-end metric it should move and the workload that exercises it.
// BENCHMARK.json at the repository root mirrors it; the tests hold the
// two equal.

// endToEndDef is one metric of an untraced run.
type endToEndDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which the metric may
	// worsen before a change counts as a regression.
	Bound float64
}

// layerDef is one metric of a traced run.
type layerDef struct {
	Name   string
	Unit   string
	Better string
	// Moves names the end-to-end metric a change in this layer shows up
	// in, and Workloads the workloads on which it does.
	Moves     string
	Workloads []string
}

var (
	allWorkloads = []string{"suite", "rr-reduction", "dissenter-1m", "gnp-build-run"}
	suiteW       = []string{"suite"}
	rrW          = []string{"rr-reduction"}
	dissW        = []string{"dissenter-1m"}
	gnpW         = []string{"gnp-build-run"}
	poolW        = []string{"suite", "rr-reduction"}
)

var endToEnd = []endToEndDef{
	{"setup_s", "s", "lower", 0.25},
	{"run_wall_s", "s", "lower", 0.25},
	{"run_cpu_s", "s", "lower", 0.25},
	{"total_cpu_s", "s", "lower", 0.25},
	{"trials_per_cpu_s", "1/s", "higher", 0.25},
	{"cpu_ns_per_step", "ns", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.2},
}

// expLayers lists the per-experiment wall times of the suite, E1–E19.
func expLayers() []layerDef {
	var out []layerDef
	for _, d := range suiteDefs() {
		out = append(out, layerDef{"exp." + d.ID + "_s", "s", "lower", "run_wall_s", suiteW})
	}
	return out
}

var layers = append([]layerDef{
	{"work.steps", "count", "lower", "cpu_ns_per_step", allWorkloads},
	{"work.trials", "count", "higher", "trials_per_cpu_s", allWorkloads},
	{"trace.run_cpu_s", "s", "lower", "run_cpu_s", allWorkloads},
	{"trace.overhead_cpu_s", "s", "lower", "run_cpu_s", allWorkloads},

	{"graph.build_s", "s", "lower", "setup_s", gnpW},
	{"graph.build_cpu_s", "s", "lower", "total_cpu_s", gnpW},
	{"graph.build_sample_s", "s", "lower", "setup_s", gnpW},
	{"graph.build_count_s", "s", "lower", "setup_s", gnpW},
	{"graph.build_offsets_s", "s", "lower", "setup_s", gnpW},
	{"graph.build_scatter_s", "s", "lower", "setup_s", gnpW},
	{"graph.build_sort_s", "s", "lower", "setup_s", gnpW},
	{"graph.arcindex_s", "s", "lower", "setup_s", gnpW},
	{"graph.csr_mb", "MiB", "lower", "peak_rss_mb", gnpW},
	{"graph.topology_s", "s", "lower", "setup_s", dissW},
	{"graph.cache_hits", "count", "higher", "run_cpu_s", suiteW},
	{"graph.cache_misses", "count", "lower", "run_cpu_s", suiteW},

	{"core.block_cpu_ns_per_step.vertex", "ns", "lower", "cpu_ns_per_step", rrW},
	{"core.block_cpu_ns_per_step.edge", "ns", "lower", "cpu_ns_per_step", rrW},
	{"core.sparse_entry_s", "s", "lower", "run_cpu_s", dissW},
	{"core.sparse_active_steps", "count", "lower", "cpu_ns_per_step", dissW},
	{"core.sparse_cpu_ns_per_active_step", "ns", "lower", "cpu_ns_per_step", dissW},
	{"core.fast_entry_s", "s", "lower", "run_cpu_s", gnpW},
	{"core.fast_handoffs", "count", "higher", "run_cpu_s", gnpW},
	{"core.trial_cpu_s.p50", "s", "lower", "run_cpu_s", dissW},
	{"core.trial_cpu_s.max", "s", "lower", "run_cpu_s", dissW},
	{"core.trial_cpu_s.count", "count", "higher", "trials_per_cpu_s", dissW},

	{"exp.sweep_s", "s", "lower", "run_wall_s", rrW},
	{"sched.overhead_ns_per_step", "ns", "lower", "cpu_ns_per_step", rrW},
	{"sched.util", "ratio", "higher", "run_wall_s", poolW},
	{"sched.idle_s", "s", "lower", "run_wall_s", poolW},
	{"sched.steals", "count", "lower", "run_wall_s", rrW},
	{"sched.parks", "count", "lower", "run_wall_s", rrW},
	{"rng.refills", "count", "lower", "cpu_ns_per_step", rrW},
}, expLayers()...)

// unitOf returns a catalog metric's unit ("" for an unknown name,
// which the output check rejects).
func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range layers {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
