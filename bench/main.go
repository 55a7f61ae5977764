// Command bench is the repository's benchmark: the time from a tensor file
// to a fitted CP decomposition, on four workloads that put the time in
// different layers, plus a traced pass that splits it by layer.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh                          # every workload, seed 1
//	bash bench/run.sh --workload restarts --seed 3 --seconds 20 --trace 0
//	bash bench/run.sh --trace 1 -out trace.json
//	bash bench/run.sh -seeds 10 -out head.json -base ../base -base-out base.json
//	bash bench/run.sh -compare base.json head.json
//
// -base runs the benchmark of another checkout (the base commit) seed by
// seed, interleaved with this one and alternating which side goes first,
// then compares the two sets pair by pair.
//
// With --workload, the last line of standard output is one JSON object
// holding correct, attempted, failed and the metrics with their units.
// See README.md for the workloads, metrics and their bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config holds what every run of one invocation shares.
type config struct {
	seconds float64
	trace   bool
	work    string  // directory for generated inputs and traces
	scale   float64 // multiplies every workload's non-zero count
	iters   int     // overrides every workload's iteration count when > 0
	base    string  // checkout to run interleaved as the base side, or ""
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all)")
	seed := fs.Int64("seed", 1, "input seed: offsets every tensor generator seed and every ALS seed")
	seeds := fs.Int("seeds", 1, "runs per workload, with seeds seed, seed+1, ...")
	seconds := fs.Float64("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	out := fs.String("out", "", "write the results file here")
	base := fs.String("base", "", "checkout whose benchmark to run interleaved with this one, as the base of a paired comparison")
	baseOut := fs.String("base-out", "", "with -base, write the base side's results file here")
	compare := fs.Bool("compare", false, "compare two results files given as arguments: base head")
	worker := fs.String("worker", "", "run one measurement job given as JSON (used by the benchmark itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(procs)

	switch {
	case *worker != "":
		var j job
		if err := json.Unmarshal([]byte(*worker), &j); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		r, err := runWorker(j)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(r); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	case *compare:
		return compareMain(fs.Args(), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *seeds < 1 {
		fmt.Fprintln(stderr, "bench: -seeds must be at least 1")
		return 2
	}
	selected := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		selected = []workload{w}
	}
	if *base != "" && *trace != 0 {
		fmt.Fprintln(stderr, "bench: -base compares untraced runs; drop --trace 1")
		return 2
	}
	cfg := config{seconds: *seconds, trace: *trace == 1, work: ".bench_build", scale: 1, base: *base}
	res, baseRes, err := measure(cfg, selected, *seed, *seeds, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, f := range []struct {
		path string
		res  resultsFile
	}{{*out, res}, {*baseOut, baseRes}} {
		if f.path == "" {
			continue
		}
		if err := writeResults(f.path, f.res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	failed := 0
	for _, wr := range append(res.Workloads, baseRes.Workloads...) {
		failed += wr.Failed
	}
	if *base != "" {
		if worse := compareResults(stdout, baseRes, res); worse > 0 {
			fmt.Fprintf(stdout, "%d metric(s) worse than their bound\n", worse)
			return 1
		}
	}
	if len(res.Workloads) == 1 && *seeds == 1 && *base == "" {
		if err := printSummary(stdout, res.Workloads[0], cfg.trace); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// measure runs every selected workload once per seed, prints each
// workload's table and returns the results. With cfg.base set, it also
// runs the base checkout's benchmark on every seed, right before or after
// this one's run, alternating which side goes first, and returns those
// results as the second value.
func measure(cfg config, selected []workload, seed int64, seeds int, stdout, stderr io.Writer) (res, baseRes resultsFile, err error) {
	res = resultsFile{Provenance: hostProvenance(), Seconds: cfg.seconds, Trace: cfg.trace}
	p := res.Provenance
	fmt.Fprintf(stderr, "host: %s, nproc %d, GOMAXPROCS %d, %s, revision %s (modified %s), model cache %d B\n",
		p.CPU, p.NumCPU, p.GOMAXPROCS, p.GoVersion, p.Revision, p.Modified, p.CacheBytes)
	if p.NumCPU < procs {
		fmt.Fprintf(stderr, "warning: %d CPUs for %d compute threads; timings will include contention\n", p.NumCPU, procs)
	}
	baseRes = res
	baseRes.Provenance.Revision, baseRes.Provenance.Modified = "unknown", "unknown"
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return res, baseRes, err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, w := range selected {
		var runs, baseRuns []runResult
		var used []int64
		for i := 0; i < seeds; i++ {
			s := seed + int64(i)
			sides := []func() error{func() error {
				r, err := runOnce(cfg, w, s, stderr)
				runs = append(runs, r)
				return err
			}}
			if cfg.base != "" {
				sides = append(sides, func() error {
					r, err := runBase(cfg, w.name, s, stderr)
					baseRuns = append(baseRuns, r)
					return err
				})
			}
			if i%2 == 1 {
				slices.Reverse(sides)
			}
			for _, side := range sides {
				if err := side(); err != nil {
					return res, baseRes, err
				}
			}
			used = append(used, s)
		}
		wr := aggregate(w.name, used, runs, defs)
		printWorkload(stdout, wr, defs)
		res.Workloads = append(res.Workloads, wr)
		if cfg.base != "" {
			bwr := aggregate(w.name, used, baseRuns, defs)
			fmt.Fprintf(stdout, "base %s: ", cfg.base)
			printWorkload(stdout, bwr, defs)
			baseRes.Workloads = append(baseRes.Workloads, bwr)
		}
	}
	return res, baseRes, nil
}

// runOnce generates and gates one seed's input, then measures it in a
// worker process.
func runOnce(cfg config, w workload, seed int64, stderr io.Writer) (runResult, error) {
	dir, err := w.prepare(cfg.work, seed, cfg.scale, cfg.iters)
	if err != nil {
		return runResult{}, err
	}
	defer os.RemoveAll(dir)
	j := job{Workload: w.name, Seed: seed, Seconds: cfg.seconds, Trace: cfg.trace, Iters: cfg.iters, Dir: dir}
	if cfg.trace {
		j.TraceOut = filepath.Join(cfg.work, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
	}
	return spawn(j, stderr)
}

// summary is the one-line JSON result of a single run.
type summary struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]summaryValue `json:"metrics"`
}

type summaryValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printSummary writes the summary of a single run: the run value of every
// end-to-end metric, or of every per-layer metric when traced.
func printSummary(w io.Writer, wr workloadResult, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	s := summary{Correct: wr.Failed == 0, Attempted: wr.Attempted, Failed: wr.Failed,
		Metrics: make(map[string]summaryValue, len(defs))}
	for _, m := range defs {
		s.Metrics[m.name] = summaryValue{wr.Metrics[m.name].Value, m.unit}
	}
	return json.NewEncoder(w).Encode(s)
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench -compare base.json head.json")
		return 2
	}
	base, err := readResults(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	head, err := readResults(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if worse := compareResults(stdout, base, head); worse > 0 {
		fmt.Fprintf(stdout, "%d metric(s) worse than their bound\n", worse)
		return 1
	}
	return 0
}
