// Command perfbench is the repository's benchmark: an external harness
// that drives the simulator's layers through their public functions
// only and reports end-to-end metrics (untraced runs) or per-layer
// metrics (traced runs) as one JSON line. See README.md.
//
// Usage:
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans-dir DIR]
//
// The last line of standard output is
//
//	{"correct": bool, "attempted": int, "failed": int, "metrics": {name: {"value": v, "unit": u}}}
//
// and the exit status is nonzero when any correctness check failed or a
// layer returned an error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name: suite, rr-reduction, dissenter-1m, gnp-build-run")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 25, "nominal run length; sets how many repetitions are timed")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	spansDir := flag.String("spans-dir", "", "directory for the traced run's span file (none when empty)")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --trace 0|1 and --seconds > 0\n", allWorkloads)
		return 2
	}
	runtime.GOMAXPROCS(width)
	opts := runOpts{seed: *seed, seconds: *seconds}
	if *trace == 1 {
		opts.tr = newTracer()
	}
	out, err := w.Run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
		if out == nil {
			out = newOutcome()
		}
		out.attempted++
		out.failed++
	}
	fmt.Printf("work: workload=%s seed=%d steps=%d trials=%d\n", w.Name, *seed, out.steps, out.trials)

	if opts.tr != nil {
		out.set("work.steps", float64(out.steps))
		out.set("work.trials", float64(out.trials))
		spans := opts.tr.finish()
		printSelfTimes(os.Stdout, spans)
		if *spansDir != "" {
			path := filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.Name, *seed))
			if err := os.MkdirAll(*spansDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
			} else if err := writeSpans(path, spans); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
			} else {
				fmt.Printf("spans: %d -> %s\n", len(spans), path)
			}
		}
	}
	metrics, missing := reportable(out.metrics, *trace == 1)
	for _, m := range missing {
		out.check(false, "metric %s was not measured", m)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "FAIL:", p)
	}
	printMetrics(metrics)
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// reportable returns exactly the metrics the run kind reports: every
// end-to-end metric for an untraced run, every per-layer metric for a
// traced one. A per-layer metric the workload does not exercise reads
// 0. A missing or non-finite end-to-end metric is returned in missing.
func reportable(have map[string]metric, traced bool) (map[string]metric, []string) {
	out := make(map[string]metric)
	var missing []string
	if traced {
		for _, l := range layers {
			m, ok := have[l.Name]
			if !ok {
				m = metric{Value: 0, Unit: l.Unit}
			}
			out[l.Name] = m
		}
		return out, nil
	}
	for _, e := range endToEnd {
		m, ok := have[e.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value <= 0 {
			missing = append(missing, e.Name)
			continue
		}
		out[e.Name] = m
	}
	return out, missing
}

// printMetrics prints one "name value unit" line per metric.
func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
