package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"time"

	"div/internal/cli"
	"div/internal/core"
	"div/internal/exp"
	"div/internal/graph"
	"div/internal/obs"
	"div/internal/rng"
	"div/internal/sched"
)

// width is the process's parallelism: every workload runs at width 2,
// the CPU count of the machine the bounds were set on, whatever the
// host offers, so runs on wider hosts stay comparable.
const width = 2

// runOpts is one invocation of a workload.
type runOpts struct {
	seed    uint64
	seconds float64
	// tr is nil for the untimed-overhead (untraced) run; a traced run
	// records spans around every call into a layer and reports the
	// per-layer metrics instead of the end-to-end ones.
	tr    *tracer
	smoke bool
}

// outcome collects one run's verdicts, work counts and metrics.
type outcome struct {
	attempted, failed int
	// steps and trials are the simulated scheduler draws and trials of
	// one repetition of the run phase; every run of one seed must
	// report the same two numbers.
	steps, trials int64
	metrics       map[string]metric
	problems      []string
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]metric)} }

// check counts one correctness verdict.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		if len(o.problems) < 20 {
			o.problems = append(o.problems, fmt.Sprintf(format, args...))
		}
	}
}

// set records a metric under its catalog unit.
func (o *outcome) set(name string, v float64) {
	o.metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

// endToEndFrom fills the end-to-end metrics from per-repetition
// measurements, each reported as the median over repetitions, and the
// peak resident set in MiB.
func (o *outcome) endToEndFrom(setupWall, runWall, runCPU, totalCPU []float64, peakMB float64) {
	fmt.Printf("reps: setup_s=%.4g run_wall_s=%.4g run_cpu_s=%.4g\n", setupWall, runWall, runCPU)
	o.set("setup_s", median(setupWall))
	o.set("run_wall_s", median(runWall))
	cpu := median(runCPU)
	o.set("run_cpu_s", cpu)
	o.set("total_cpu_s", median(totalCPU))
	o.set("trials_per_cpu_s", float64(o.trials)/cpu)
	o.set("cpu_ns_per_step", cpu*1e9/float64(o.steps))
	o.set("peak_rss_mb", peakMB)
}

// workload is one named input set of the benchmark.
type workload struct {
	Name string
	Why  string
	Run  func(runOpts) (*outcome, error)
}

var workloads = []workload{
	{"suite", "divbench's default quick suite E1-E19 at width 2: the core.Run/PCG path, netsim, spectral and the graph cache, interleaved on the shared pool", runSuite},
	{"rr-reduction", "Theorem 1 reduction sweep to two adjacent opinions on a cache-resident random 8-regular graph: CSR lane kernels, Philox streams, the pool", runRR},
	{"dissenter-1m", "scattered dissenters at n=10^6 on an implicit circulant: the sparse endgame engine and its seeding pass, no graph build and no pool", runDissenter},
	{"gnp-build-run", "G(n,p) at n=10^6 built by the CLI path plus a step-capped near-consensus run: parallel CSR assembly, ArcIndex and FastState", runGnp},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---------------------------------------------------------------------
// suite
// ---------------------------------------------------------------------

// suiteDefs is E1–E19: every experiment except the wall-clock ones
// (E20 times itself).
func suiteDefs() []exp.Def {
	var defs []exp.Def
	for _, d := range exp.All {
		if !d.Timing {
			defs = append(defs, d)
		}
	}
	return defs
}

// doneCounter is a probe that only sums each run's final step count.
// The suite's trials are otherwise invisible from outside; it is
// attached to the untimed first repetition only.
type doneCounter struct{ steps, runs atomic.Int64 }

func (*doneCounter) StepBatch(obs.StepBatch)       {}
func (*doneCounter) EngineSwitch(obs.EngineSwitch) {}
func (*doneCounter) Discordance(obs.Discordance)   {}
func (*doneCounter) Stage(obs.Stage)               {}
func (c *doneCounter) Done(d obs.Done)             { c.steps.Add(d.Step); c.runs.Add(1) }

// suiteRep is one timed pass over the suite.
type suiteRep struct {
	setupWall, runWall, setupCPU, runCPU float64
	trials                               int64
	texts                                []string
}

// runSuiteOnce runs defs through exp.RunAll. The probe maker notes the
// moment the first trial is ready to step, which splits set-up (suite
// start to first trial) from the run phase, and returns maker's probe:
// nil on timed passes, keeping every engine on its probe-free path.
// With tr non-nil each experiment runs inside a span.
func runSuiteOnce(defs []exp.Def, maker obs.ProbeMaker, o *outcome, tr *tracer) suiteRep {
	var (
		trials   atomic.Int64
		firstNs  atomic.Int64
		firstCPU atomic.Uint64
	)
	c := startClock()
	p := exp.Params{Quick: true, Parallelism: width, Probe: func(trial int, seed uint64) obs.Probe {
		if trials.Add(1) == 1 {
			firstCPU.Store(math.Float64bits(cpuSeconds()))
			firstNs.Store(time.Since(c.wall).Nanoseconds())
		}
		if maker != nil {
			return maker(trial, seed)
		}
		return nil
	}}
	if tr != nil {
		wrapped := make([]exp.Def, len(defs))
		for i, d := range defs {
			d, run := d, d.Run
			d.Run = func(p exp.Params) (*exp.Report, error) {
				id := tr.begin("exp."+d.ID, 0)
				defer tr.end(id)
				return run(p)
			}
			wrapped[i] = d
		}
		defs = wrapped
	}
	reports, errs := exp.RunAll(p, defs)
	wall, cpu := c.stop()
	rep := suiteRep{trials: trials.Load()}
	rep.setupWall = float64(firstNs.Load()) / 1e9
	rep.runWall = wall - rep.setupWall
	rep.setupCPU = math.Float64frombits(firstCPU.Load()) - c.cpu
	rep.runCPU = cpu - rep.setupCPU
	for i, d := range defs {
		if errs[i] != nil {
			o.check(false, "%s: experiment error: %v", d.ID, errs[i])
			rep.texts = append(rep.texts, "")
			continue
		}
		for _, ch := range reports[i].Checks {
			o.check(ch.Pass, "%s: %s — %s", d.ID, ch.Name, ch.Detail)
		}
		var b bytes.Buffer
		if err := reports[i].WriteText(&b); err != nil {
			o.check(false, "%s: render: %v", d.ID, err)
		}
		rep.texts = append(rep.texts, b.String())
	}
	return rep
}

// runSuite runs the quick suite at divbench's default seed, exactly as
// `divbench` and the repository's suite test run it. The seed stays
// fixed because the suite's checks are statistical verdicts validated
// at that seed (see README.md, "Choices made for steadiness"). The
// first repetition warms the graph cache and counts the suite's
// simulated steps; the timed repetitions that follow must reproduce its
// reports byte for byte.
func runSuite(o runOpts) (*outcome, error) {
	out := newOutcome()
	defs := suiteDefs()
	if o.smoke {
		defs = []exp.Def{defs[2], defs[10]} // E3, E11
	}
	settle()
	var cnt doneCounter
	warm := runSuiteOnce(defs, obs.ConstMaker(&cnt), out, nil)
	out.steps, out.trials = cnt.steps.Load(), cnt.runs.Load()
	out.check(out.trials == warm.trials, "probe saw %d runs, maker %d", out.trials, warm.trials)

	sameAsWarm := func(r suiteRep) {
		out.check(r.trials == warm.trials, "repetition ran %d trials, first ran %d", r.trials, warm.trials)
		for i := range r.texts {
			out.check(r.texts[i] == warm.texts[i], "%s: report differs from the first repetition", defs[i].ID)
		}
	}
	if o.tr != nil {
		return suiteTraced(o, defs, out, out.steps, sameAsWarm)
	}
	// The warm-up pass sets the process's high-water mark while it fills
	// the graph cache, and that peak moves with GC timing. The suite's
	// peak_rss_mb is therefore the median over timed passes of the RSS
	// sampled during each.
	reps := repCount(o.seconds, 6, 2)
	var setupWall, runWall, runCPU, totalCPU, peaks []float64
	for r := 0; r < reps; r++ {
		settle()
		pt := obs.TrackPeakRSS(0)
		rep := runSuiteOnce(defs, nil, out, nil)
		peaks = append(peaks, float64(pt.Stop())/(1<<20))
		sameAsWarm(rep)
		setupWall = append(setupWall, rep.setupWall)
		runWall = append(runWall, rep.runWall)
		runCPU = append(runCPU, rep.runCPU)
		totalCPU = append(totalCPU, rep.setupCPU+rep.runCPU)
	}
	out.endToEndFrom(setupWall, runWall, runCPU, totalCPU, median(peaks))
	return out, nil
}

// suiteTraced alternates untraced and traced passes and reports
// per-experiment wall times plus the cache and pool counters over the
// last traced pass.
func suiteTraced(o runOpts, defs []exp.Def, out *outcome, steps int64, sameAsWarm func(suiteRep)) (*outcome, error) {
	pass := func(tr *tracer) passTimes {
		pool := sched.Shared(width)
		hits0, misses0, _, _ := graph.SharedCache().Stats()
		busy0 := pool.BusyNanos()
		ctr0 := counters()
		rep := runSuiteOnce(defs, nil, out, tr)
		sameAsWarm(rep)
		if tr != nil {
			hits1, misses1, _, _ := graph.SharedCache().Stats()
			poolLayers(out, pool.BusyNanos()-busy0, rep.setupWall+rep.runWall, ctr0)
			out.set("graph.cache_hits", float64(hits1-hits0))
			out.set("graph.cache_misses", float64(misses1-misses0))
		}
		return passTimes{wall: rep.runWall, cpu: rep.runCPU, steps: steps, trials: rep.trials}
	}
	_, _, err := traceRuns(out,
		func() (passTimes, error) { return pass(nil), nil },
		func() (passTimes, error) { return pass(o.tr), nil })
	if err != nil {
		return nil, err
	}
	perExp := make(map[string][]float64)
	for _, sp := range o.tr.finish() {
		perExp[sp.Name] = append(perExp[sp.Name], float64(sp.End-sp.Start)/1e9)
	}
	for _, d := range defs {
		out.set("exp."+d.ID+"_s", median(perExp["exp."+d.ID]))
	}
	return out, nil
}

// counterSet is a snapshot of the always-on program counters the
// traced runs report as deltas.
type counterSet struct{ steals, parks, refills int64 }

func counters() counterSet {
	return counterSet{
		steals:  obs.Default.Counter("sched_steals_total").Value(),
		parks:   obs.Default.Counter("sched_parks_total").Value(),
		refills: obs.Default.Counter("rng_stream_refills_total").Value(),
	}
}

// poolLayers records pool utilization, idle time and counter deltas for
// a phase of the given wall time.
func poolLayers(out *outcome, busyNs int64, wall float64, c0 counterSet) {
	c1 := counters()
	capacity := wall * width
	out.set("sched.util", float64(busyNs)/1e9/capacity)
	out.set("sched.idle_s", capacity-float64(busyNs)/1e9)
	out.set("sched.steals", float64(c1.steals-c0.steals))
	out.set("sched.parks", float64(c1.parks-c0.parks))
	out.set("rng.refills", float64(c1.refills-c0.refills))
}

// ---------------------------------------------------------------------
// rr-reduction
// ---------------------------------------------------------------------

// rrSize is the reduction sweep's shape: n = 2^14 keeps the 8-regular
// graph and a block of opinion rows cache-resident, k = 5 uniform
// opinions, one vertex-process point and one edge-process point.
type rrSize struct {
	n, d, k, trials, setupReps int
	repSeconds                 float64
}

func rrSizes(smoke bool) rrSize {
	if smoke {
		return rrSize{n: 1024, d: 8, k: 5, trials: 16, setupReps: 2, repSeconds: 1e9}
	}
	return rrSize{n: 1 << 14, d: 8, k: 5, trials: 64, setupReps: 5, repSeconds: 5}
}

// rrPoint is one point of the sweep: a process and its trial seed.
type rrPoint struct {
	proc core.Process
	seed uint64
}

// rrPoints returns the vertex and edge points with their own seeds.
func rrPoints(seed uint64) []rrPoint {
	return []rrPoint{
		{core.VertexProcess, rng.DeriveSeed(seed, 0x52)},
		{core.EdgeProcess, rng.DeriveSeed(seed, 0x53)},
	}
}

// buildGraph runs the CLI build path plus ArcIndex, as every sweep
// does before its first trial. With stats non-nil it goes through
// ParseGraphOpts at the same width so the assembler's phase timings
// are captured; the graph is the same either way.
func buildGraph(spec string, seed uint64, stats *graph.BuildStats, tr *tracer, out *outcome) (g *graph.Graph, wall, cpu float64, err error) {
	c := startClock()
	id := tr.begin("graph.parse", 0)
	if stats != nil {
		g, err = cli.ParseGraphOpts(spec, seed, graph.BuildOpts{Workers: width, Stats: stats})
	} else {
		g, err = cli.ParseGraph(spec, seed)
	}
	buildWall := tr.end(id)
	buildCPU := cpuSeconds() - c.cpu
	if err != nil {
		return nil, 0, 0, fmt.Errorf("build %s: %w", spec, err)
	}
	id = tr.begin("graph.arcindex", 0)
	g.ArcIndex()
	arcWall := tr.end(id)
	wall, cpu = c.stop()
	if tr != nil {
		out.set("graph.build_s", buildWall)
		out.set("graph.build_cpu_s", buildCPU)
		out.set("graph.arcindex_s", arcWall)
		adj, arc := graph.CSRMemEstimate(g.N(), g.DegreeSum())
		out.set("graph.csr_mb", float64(adj+arc)/(1<<20))
	}
	return g, wall, cpu, nil
}

// setupGraph builds spec reps times from the same seed, settling the
// heap before each build, checks every build, and returns the last
// graph with the per-build wall and CPU times. A traced run builds once,
// through ParseGraphOpts with BuildStats, and records the build layers.
func setupGraph(spec string, seed uint64, reps int, tr *tracer, out *outcome, check func(*graph.Graph)) (*graph.Graph, []float64, []float64, error) {
	if tr != nil {
		reps = 1
	}
	var g *graph.Graph
	var walls, cpus []float64
	for i := 0; i < reps; i++ {
		g = nil
		settle()
		var stats *graph.BuildStats
		if tr != nil {
			stats = &graph.BuildStats{}
		}
		built, wall, cpu, err := buildGraph(spec, seed, stats, tr, out)
		if err != nil {
			return nil, nil, nil, err
		}
		if stats != nil {
			setStats(out, stats)
		}
		g = built
		check(g)
		walls = append(walls, wall)
		cpus = append(cpus, cpu)
	}
	return g, walls, cpus, nil
}

// setStats records the assembler's phase timings.
func setStats(out *outcome, s *graph.BuildStats) {
	out.set("graph.build_sample_s", float64(s.SampleNanos)/1e9)
	out.set("graph.build_count_s", float64(s.CountNanos)/1e9)
	out.set("graph.build_offsets_s", float64(s.OffsetsNanos)/1e9)
	out.set("graph.build_scatter_s", float64(s.ScatterNanos)/1e9)
	out.set("graph.build_sort_s", float64(s.SortNanos)/1e9)
}

// passTimes is one measured pass of a run phase.
type passTimes struct {
	wall, cpu     float64
	steps, trials int64
	// busyNs is the pool's busy time over the pass (pooled workloads);
	// ready is the wall time until the first trial could step and
	// trialCPU the CPU of each trial (one-trial-per-call workloads).
	busyNs   int64
	ready    float64
	trialCPU []float64
}

// timePasses runs a run phase reps times, settling the heap before
// each, checks that every pass repeats the first pass's work, and
// returns the per-pass wall and CPU times.
//
// With warm set, the heap is settled once and an untimed warm-up pass
// runs first; before each timed pass the garbage is then collected but
// the heap keeps its pages. A pass that allocates a large index (the
// gnp run's FastState) thus reuses memory the process already holds,
// instead of faulting in fresh pages whose cost depends on the host.
func timePasses(out *outcome, reps int, warm bool, pass func() (passTimes, error)) (walls, cpus []float64, passes []passTimes, err error) {
	first := 0
	if warm {
		settle()
		first = -1
	}
	for r := first; r < reps; r++ {
		if warm {
			runtime.GC()
		} else {
			settle()
		}
		p, err := pass()
		if err != nil {
			return nil, nil, nil, err
		}
		if r == first {
			out.steps, out.trials = p.steps, p.trials
		}
		out.check(p.steps == out.steps && p.trials == out.trials,
			"pass %d ran %d steps in %d trials, the first ran %d in %d", r, p.steps, p.trials, out.steps, out.trials)
		if r < 0 {
			continue
		}
		walls = append(walls, p.wall)
		cpus = append(cpus, p.cpu)
		passes = append(passes, p)
	}
	return walls, cpus, passes, nil
}

// traceRounds is how many untraced and traced passes a traced run
// alternates; per-layer figures are medians over them.
const traceRounds = 3

// traceRuns alternates an untraced and a traced pass of the run phase
// traceRounds times, with the same inputs every time, and records the
// traced passes' median CPU and its excess over the untraced median:
// the tracing overhead. Both kinds of pass must do the same work.
func traceRuns(out *outcome, plain, traced func() (passTimes, error)) (plains, traceds []passTimes, err error) {
	for r := 0; r < traceRounds; r++ {
		settle()
		p, err := plain()
		if err != nil {
			return nil, nil, err
		}
		settle()
		t, err := traced()
		if err != nil {
			return nil, nil, err
		}
		out.check(t.steps == p.steps && t.trials == p.trials,
			"traced pass ran %d steps in %d trials, untraced %d in %d", t.steps, t.trials, p.steps, p.trials)
		plains, traceds = append(plains, p), append(traceds, t)
	}
	out.steps, out.trials = plains[0].steps, plains[0].trials
	out.set("trace.run_cpu_s", median(cpus(traceds)))
	out.set("trace.overhead_cpu_s", median(cpus(traceds))-median(cpus(plains)))
	return plains, traceds, nil
}

// cpus returns the passes' CPU times.
func cpus(ps []passTimes) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.cpu
	}
	return out
}

// plus returns xs with c added to every element.
func plus(xs []float64, c float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x + c
	}
	return out
}

// rrSweep runs both points as blocked sweeps on the shared width-2 pool
// and checks every trial reached two adjacent opinions.
func rrSweep(g *graph.Graph, sz rrSize, seed uint64, out *outcome) (passTimes, error) {
	pool := sched.Shared(width)
	busy0 := pool.BusyNanos()
	p := exp.Params{Parallelism: width, Engine: "auto"}
	post := func(_, _ int, res core.Result) (core.Result, error) { return res, nil }
	c := startClock()
	var futs []*exp.SweepFuture[core.Result]
	for _, pt := range rrPoints(seed) {
		futs = append(futs, exp.StartSweepBlocked(p, "rr-"+pt.proc.String(),
			[]exp.Point{{G: g, Seed: pt.seed, Trials: sz.trials}},
			exp.BlockTrial{
				Process: pt.proc,
				Stop:    core.UntilTwoAdjacent,
				Init: func(_, _ int, dst []int, r *rand.Rand) error {
					core.UniformOpinionsInto(dst, sz.k, r)
					return nil
				},
			}, post))
	}
	var rep passTimes
	var results []core.Result
	for _, f := range futs {
		res, err := f.Wait()
		if err != nil {
			return rep, err
		}
		results = append(results, res[0]...)
	}
	rep.wall, rep.cpu = c.stop()
	rep.busyNs = pool.BusyNanos() - busy0
	for _, r := range results {
		rep.steps += r.Steps
		rep.trials++
		out.check(r.TwoAdjacentStep >= 0 && r.FinalMax-r.FinalMin <= 1,
			"rr trial stopped after %d steps with opinions %d..%d", r.Steps, r.FinalMin, r.FinalMax)
	}
	return rep, nil
}

func runRR(o runOpts) (*outcome, error) {
	out := newOutcome()
	sz := rrSizes(o.smoke)
	spec := fmt.Sprintf("regular:%d,%d", sz.n, sz.d)
	g, setupWall, setupCPU, err := setupGraph(spec, rng.DeriveSeed(o.seed, 0x51), sz.setupReps, o.tr, out, func(g *graph.Graph) {
		out.check(g.N() == sz.n && g.IsRegular() && g.MinDegree() == sz.d, "rr graph: n=%d regular=%v", g.N(), g.IsRegular())
	})
	if err != nil {
		return nil, err
	}
	if o.tr != nil {
		return rrTraced(o, g, sz, out)
	}
	runWall, runCPU, _, err := timePasses(out, repCount(o.seconds, sz.repSeconds, 3), false, func() (passTimes, error) {
		return rrSweep(g, sz, o.seed, out)
	})
	if err != nil {
		return nil, err
	}
	out.endToEndFrom(setupWall, runWall, runCPU, plus(runCPU, median(setupCPU)), peakRSSMB())
	return out, nil
}

// rrTraced alternates untraced and traced sweeps, then replays the
// same points span by span through core.RunBlock on this goroutine:
// the direct figure is the kernel's own cost per step, and the
// untraced sweep's excess over it is what the pool and sweep layers
// add.
func rrTraced(o runOpts, g *graph.Graph, sz rrSize, out *outcome) (*outcome, error) {
	plains, _, err := traceRuns(out,
		func() (passTimes, error) { return rrSweep(g, sz, o.seed, out) },
		func() (passTimes, error) {
			c0 := counters()
			id := o.tr.begin("exp.sweep", 0)
			p, err := rrSweep(g, sz, o.seed, out)
			out.set("exp.sweep_s", o.tr.end(id))
			poolLayers(out, p.busyNs, p.wall, c0)
			return p, err
		})
	if err != nil {
		return nil, err
	}
	var sweepNs, directNs []float64
	for _, p := range plains {
		sweepNs = append(sweepNs, p.cpu*1e9/float64(p.steps))
	}
	perProc := make(map[core.Process][]float64)
	for r := 0; r < traceRounds; r++ {
		var cpu float64
		var steps int64
		for _, pt := range rrPoints(o.seed) {
			settle()
			c, s, err := rrDirect(g, sz, pt, o.tr)
			if err != nil {
				return nil, err
			}
			perProc[pt.proc] = append(perProc[pt.proc], c*1e9/float64(s))
			cpu += c
			steps += s
		}
		out.check(steps == out.steps, "direct RunBlock ran %d steps, sweep %d", steps, out.steps)
		directNs = append(directNs, cpu*1e9/float64(steps))
	}
	for proc, ns := range perProc {
		out.set("core.block_cpu_ns_per_step."+proc.String(), median(ns))
	}
	out.set("sched.overhead_ns_per_step", median(sweepNs)-median(directNs))
	return out, nil
}

// rrDirect runs one point's trials through core.RunBlock on this
// goroutine, one span of core.DefaultBlock trials per call on one
// reused scratch arena, as a sweep worker does, and returns the CPU
// time and steps.
func rrDirect(g *graph.Graph, sz rrSize, pt rrPoint, tr *tracer) (cpu float64, steps int64, err error) {
	name := "core.runblock." + pt.proc.String()
	sc := core.NewScratch(g)
	for t0 := 0; t0 < sz.trials; t0 += core.DefaultBlock {
		t1 := min(t0+core.DefaultBlock, sz.trials)
		res := make([]core.Result, t1-t0)
		c := startClock()
		id := tr.begin(name, 0)
		err := core.RunBlock(core.BlockConfig{
			Graph: g, Process: pt.proc, Engine: core.EngineAuto, Stop: core.UntilTwoAdjacent, Seed: pt.seed, Scratch: sc,
			Init: func(_ int, dst []int, r *rand.Rand) error {
				core.UniformOpinionsInto(dst, sz.k, r)
				return nil
			},
		}, t0, t1, res)
		tr.end(id)
		_, spanCPU := c.stop()
		if err != nil {
			return 0, 0, err
		}
		cpu += spanCPU
		for _, r := range res {
			steps += r.Steps
		}
	}
	return cpu, steps, nil
}

// ---------------------------------------------------------------------
// dissenter-1m
// ---------------------------------------------------------------------

// dissSize is the sparse-endgame workload: k scattered dissenters at
// opinion 2 on a background of 1s, each trial capped at rounds·n draws.
// A run to consensus would be dominated by the longest-lived dissenter
// island, whose lifetime is heavy-tailed (pull voting is a martingale),
// so totals would differ by integer factors between seeds. The cap
// bounds every island's contribution; with k islands per trial the
// work of a pass differs between seeds by a few percent.
type dissSize struct {
	n, k, trials int
	rounds       int64
	repSeconds   float64
}

func dissSizes(smoke bool) dissSize {
	if smoke {
		return dissSize{n: 20000, k: 256, trials: 2, rounds: 16, repSeconds: 1e9}
	}
	return dissSize{n: 1_000_000, k: 16384, trials: 4, rounds: 64, repSeconds: 1.7}
}

var dissStrides = []int{1, 2, 3, 4}

// dissenterInit places k dissenters at distinct seed-chosen vertices.
func dissenterInit(n, k int, seed uint64) func(int, []int, *rand.Rand) error {
	r := rand.New(rand.NewPCG(seed, 0xd155))
	pos := make([]int32, 0, k)
	seen := make(map[int32]bool, k)
	for len(pos) < k {
		v := int32(r.IntN(n))
		if !seen[v] {
			seen[v] = true
			pos = append(pos, v)
		}
	}
	return func(_ int, dst []int, _ *rand.Rand) error {
		for i := range dst[:n] {
			dst[i] = 1
		}
		for _, v := range pos {
			dst[v] = 2
		}
		return nil
	}
}

// checkDissenter accepts a trial that reached consensus on 1 or 2, or
// stopped exactly at its cap with only opinions 1 and 2 left.
func checkDissenter(out *outcome, r core.Result, cap int64) {
	ok := (r.Consensus && (r.Winner == 1 || r.Winner == 2)) ||
		(!r.Consensus && r.Steps == cap && r.FinalMin >= 1 && r.FinalMax <= 2)
	out.check(ok, "dissenter trial: consensus=%v winner=%d steps=%d (cap %d) opinions %d..%d",
		r.Consensus, r.Winner, r.Steps, cap, r.FinalMin, r.FinalMax)
}

// dissTrials runs the trials one core.RunBlock call each on this
// goroutine, reusing one scratch arena across the pass. The probe maker
// marks when the first trial is initialized and ready to step.
func dissTrials(topo graph.Topology, sz dissSize, seed uint64, engine core.Engine, maxSteps int64, reg *obs.Registry, tr *tracer, parent int, out *outcome) (passTimes, error) {
	var rep passTimes
	init := dissenterInit(sz.n, sz.k, seed)
	sc := core.NewScratchTopo(topo)
	runSeed := rng.DeriveSeed(seed, 0xd1)
	c := startClock()
	for t := 0; t < sz.trials; t++ {
		var ready time.Duration
		ct := startClock()
		var res [1]core.Result
		id := tr.begin("core.runblock", parent)
		err := core.RunBlock(core.BlockConfig{
			Topology: topo, Compact: true, Process: core.VertexProcess, Engine: engine,
			Stop: core.UntilConsensus, MaxSteps: maxSteps, Seed: runSeed, Init: init, Scratch: sc,
			Probe: func(int, uint64) obs.Probe {
				ready = time.Since(ct.wall)
				if reg != nil {
					return obs.MetricsProbe(reg)
				}
				return nil
			},
		}, t, t+1, res[:])
		tr.end(id)
		_, cpu := ct.stop()
		if err != nil {
			return rep, err
		}
		if t == 0 {
			rep.ready = ready.Seconds()
		}
		rep.trialCPU = append(rep.trialCPU, cpu)
		rep.steps += res[0].Steps
		rep.trials++
		if engine == core.EngineAuto {
			checkDissenter(out, res[0], maxSteps)
		}
	}
	rep.wall, rep.cpu = c.stop()
	return rep, nil
}

func runDissenter(o runOpts) (*outcome, error) {
	out := newOutcome()
	sz := dissSizes(o.smoke)
	maxSteps := sz.rounds * int64(sz.n)
	c := startClock()
	id := o.tr.begin("graph.topology", 0)
	topo, err := graph.NewImplicitCirculant(sz.n, dissStrides)
	topoWall := o.tr.end(id)
	if err != nil {
		return nil, err
	}
	topoSeconds, _ := c.stop()

	if o.tr != nil {
		return dissTraced(o, topo, sz, maxSteps, topoWall, out)
	}
	runWall, runCPU, passes, err := timePasses(out, repCount(o.seconds, sz.repSeconds, 3), false, func() (passTimes, error) {
		return dissTrials(topo, sz, o.seed, core.EngineAuto, maxSteps, nil, nil, 0, out)
	})
	if err != nil {
		return nil, err
	}
	var setupWall []float64
	for _, p := range passes {
		setupWall = append(setupWall, topoSeconds+p.ready)
	}
	// No graph is built: set-up CPU is the first trial's initialization,
	// which the run phase already counts.
	out.endToEndFrom(setupWall, runWall, runCPU, runCPU, peakRSSMB())
	return out, nil
}

// dissTraced reports per-trial CPU, the sparse engine's active steps
// (counted by a metrics probe, which consumes no randomness, so the
// traced trajectory is the untraced one) and the cost of entering the
// sparse engine: a trial under EngineFast capped at one step does the
// init and the O(n·d) seeding pass and almost nothing else.
func dissTraced(o runOpts, topo graph.Topology, sz dissSize, maxSteps int64, topoWall float64, out *outcome) (*outcome, error) {
	out.set("graph.topology_s", topoWall)
	reg := obs.NewRegistry()
	plains, _, err := traceRuns(out,
		func() (passTimes, error) {
			return dissTrials(topo, sz, o.seed, core.EngineAuto, maxSteps, nil, nil, 0, out)
		},
		func() (passTimes, error) {
			reg = obs.NewRegistry()
			id := o.tr.begin("run", 0)
			defer o.tr.end(id)
			return dissTrials(topo, sz, o.seed, core.EngineAuto, maxSteps, reg, o.tr, id, out)
		})
	if err != nil {
		return nil, err
	}
	var trialCPU []float64
	for _, p := range plains {
		trialCPU = append(trialCPU, p.trialCPU...)
	}
	out.set("core.trial_cpu_s.p50", median(trialCPU))
	out.set("core.trial_cpu_s.max", quantile(trialCPU, 1))
	out.set("core.trial_cpu_s.count", float64(len(trialCPU)))
	snap := reg.Snapshot()
	active := snap.CounterValue("div_steps_active_total")
	out.set("core.sparse_active_steps", float64(active))
	out.set("core.sparse_cpu_ns_per_active_step", median(cpus(plains))*1e9/float64(active))
	out.check(snap.CounterValue("div_engine_switches_to_sparse_total") >= int64(sz.trials),
		"only %d of %d trials entered the sparse engine", snap.CounterValue("div_engine_switches_to_sparse_total"), sz.trials)

	entry := sz
	entry.trials = traceRounds
	settle()
	id := o.tr.begin("core.sparse_entry", 0)
	ent, err := dissTrials(topo, entry, o.seed, core.EngineFast, 1, nil, nil, 0, out)
	o.tr.end(id)
	if err != nil {
		return nil, err
	}
	out.set("core.sparse_entry_s", median(ent.trialCPU))
	return out, nil
}

// ---------------------------------------------------------------------
// gnp-build-run
// ---------------------------------------------------------------------

// gnpSize is the build-plus-run workload. Mean degree 20 rather than 16
// makes G(n,p) connected on the first draw for all but ~0.2% of seeds
// (n·e^-20), so ConnectedGnp's retry loop does not double some seeds'
// build time. The run phase is a near-consensus profile on the built
// graph, capped at rounds·n draws, which every trial hands off to the
// CSR FastState. It runs the edge process: on G(n,p)'s many distinct
// degrees the vertex process's degree-lcm units overflow, and
// EngineAuto then never leaves naive stepping. A pass is one trial, so
// a run times many short passes and their median shrugs off a burst of
// host interference; the graph and its FastState index are a few
// hundred MiB, which is why the run phase warms up and keeps its heap
// pages between passes (see timePasses).
type gnpSize struct {
	n, k, trials, setupReps int
	degree                  float64
	rounds                  int64
	repSeconds              float64
}

func gnpSizes(smoke bool) gnpSize {
	if smoke {
		return gnpSize{n: 20000, k: 200, trials: 2, setupReps: 1, degree: 20, rounds: 8, repSeconds: 1e9}
	}
	return gnpSize{n: 1_000_000, k: 10000, trials: 1, setupReps: 3, degree: 20, rounds: 8, repSeconds: 1.0}
}

// checkGnp holds the built graph to G(n,p)'s law: n exact, and the edge
// count within six standard deviations of Binomial(n(n-1)/2, p).
func checkGnp(out *outcome, g *graph.Graph, sz gnpSize) {
	pairs := float64(sz.n) * float64(sz.n-1) / 2
	p := sz.degree / float64(sz.n)
	mean := pairs * p
	sd := math.Sqrt(pairs * p * (1 - p))
	m := float64(g.DegreeSum()) / 2
	out.check(g.N() == sz.n && math.Abs(m-mean) <= 6*sd,
		"gnp graph: n=%d edges=%.0f, expected %.0f ± %.0f", g.N(), m, mean, 6*sd)
}

// gnpRun is one blocked, step-capped run over all trials.
func gnpRun(g *graph.Graph, sz gnpSize, seed uint64, engine core.Engine, maxSteps int64, reg *obs.Registry, trials int, out *outcome) (passTimes, error) {
	var rep passTimes
	res := make([]core.Result, trials)
	var maker obs.ProbeMaker
	if reg != nil {
		maker = obs.ConstMaker(obs.MetricsProbe(reg))
	}
	c := startClock()
	err := core.RunBlock(core.BlockConfig{
		Graph: g, Process: core.EdgeProcess, Engine: engine, Stop: core.UntilConsensus,
		MaxSteps: maxSteps, Seed: rng.DeriveSeed(seed, 0x61), Init: dissenterInit(sz.n, sz.k, seed), Probe: maker,
	}, 0, trials, res)
	rep.wall, rep.cpu = c.stop()
	if err != nil {
		return rep, err
	}
	for _, r := range res {
		rep.steps += r.Steps
		rep.trials++
		if engine == core.EngineAuto {
			checkDissenter(out, r, maxSteps)
		}
	}
	return rep, nil
}

func runGnp(o runOpts) (*outcome, error) {
	out := newOutcome()
	sz := gnpSizes(o.smoke)
	spec := fmt.Sprintf("gnp:%d,%g", sz.n, sz.degree/float64(sz.n))
	maxSteps := sz.rounds * int64(sz.n)
	g, setupWall, setupCPU, err := setupGraph(spec, rng.DeriveSeed(o.seed, 0x60), sz.setupReps, o.tr, out, func(g *graph.Graph) {
		checkGnp(out, g, sz)
	})
	if err != nil {
		return nil, err
	}
	if o.tr != nil {
		return gnpTraced(o, g, sz, maxSteps, out)
	}
	runWall, runCPU, _, err := timePasses(out, repCount(o.seconds, sz.repSeconds, 3), true, func() (passTimes, error) {
		return gnpRun(g, sz, o.seed, core.EngineAuto, maxSteps, nil, sz.trials, out)
	})
	if err != nil {
		return nil, err
	}
	out.endToEndFrom(setupWall, runWall, runCPU, plus(runCPU, median(setupCPU)), peakRSSMB())
	return out, nil
}

// gnpTraced reports the build phases, one untraced and one traced run
// (a metrics probe counts the hand-offs to FastState), and the cost of
// entering FastState: a trial under EngineFast capped at one step
// builds the O(m) discordance index and does almost nothing else.
func gnpTraced(o runOpts, g *graph.Graph, sz gnpSize, maxSteps int64, out *outcome) (*outcome, error) {
	reg := obs.NewRegistry()
	_, _, err := traceRuns(out,
		func() (passTimes, error) {
			return gnpRun(g, sz, o.seed, core.EngineAuto, maxSteps, nil, sz.trials, out)
		},
		func() (passTimes, error) {
			reg = obs.NewRegistry()
			id := o.tr.begin("run", 0)
			defer o.tr.end(id)
			return gnpRun(g, sz, o.seed, core.EngineAuto, maxSteps, reg, sz.trials, out)
		})
	if err != nil {
		return nil, err
	}
	handoffs := reg.Snapshot().CounterValue("div_engine_switches_to_fast_total")
	out.set("core.fast_handoffs", float64(handoffs))
	out.check(handoffs >= int64(sz.trials), "only %d of %d trials handed off to FastState", handoffs, sz.trials)

	var entry []float64
	for i := 0; i < traceRounds; i++ {
		settle()
		id := o.tr.begin("core.fast_entry", 0)
		rep, err := gnpRun(g, sz, o.seed, core.EngineFast, 1, nil, 1, out)
		o.tr.end(id)
		if err != nil {
			return nil, err
		}
		entry = append(entry, rep.cpu)
	}
	out.set("core.fast_entry_s", median(entry))
	return out, nil
}
