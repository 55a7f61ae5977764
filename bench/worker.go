package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stef"
)

// job is one measured run, handed from the parent to a worker process.
// The worker sees only the input paths, never the generated tensor.
type job struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Iters    int     `json:"iters,omitempty"` // overrides the workload's iterations when > 0
	Dir      string  `json:"dir"`
	TraceOut string  `json:"trace_out,omitempty"`
}

// runResult is what a worker reports: per-sample values of every metric
// it measured (end-to-end ones untraced, per-layer ones traced) and the
// solve counts behind the correctness verdict.
type runResult struct {
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Samples   map[string][]float64 `json:"samples"`
}

func (r *runResult) add(name string, v float64) { r.Samples[name] = append(r.Samples[name], v) }

// minSamples is the least number of timed samples per run, however short
// --seconds is.
const minSamples = 3

// spawn runs the job in a fresh worker process and waits for its result,
// so every run starts from a clean heap and reports its own peak memory.
func spawn(j job, stderr io.Writer) (runResult, error) {
	var r runResult
	exe, err := os.Executable()
	if err != nil {
		return r, err
	}
	arg, err := json.Marshal(j)
	if err != nil {
		return r, err
	}
	cmd := exec.Command(exe, "-worker", string(arg))
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return r, fmt.Errorf("worker for %s seed %d: %w", j.Workload, j.Seed, err)
	}
	if err := json.Unmarshal(out, &r); err != nil {
		return r, fmt.Errorf("worker for %s seed %d: %w", j.Workload, j.Seed, err)
	}
	return r, nil
}

// runBase runs one seed of the base side of a paired comparison: the
// command that cfg.base's BENCHMARK.json names, from cfg.base, on the same
// workload, seed and length as this side. The run's summary line becomes a
// runResult with one sample per metric, its run value.
func runBase(cfg config, workload string, seed int64, stderr io.Writer) (runResult, error) {
	r := runResult{Samples: make(map[string][]float64)}
	b, err := os.ReadFile(filepath.Join(cfg.base, "BENCHMARK.json"))
	if err != nil {
		return r, err
	}
	var spec struct {
		Command []string `json:"command"`
	}
	if err := json.Unmarshal(b, &spec); err != nil || len(spec.Command) == 0 {
		return r, fmt.Errorf("base %s: BENCHMARK.json names no command (%v)", cfg.base, err)
	}
	args := append(spec.Command[1:len(spec.Command):len(spec.Command)], "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(cfg.seconds), "--trace", "0")
	cmd := exec.Command(spec.Command[0], args...)
	cmd.Dir = cfg.base
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return r, fmt.Errorf("base %s, %s seed %d: %w", cfg.base, workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		return r, fmt.Errorf("base %s, %s seed %d: %w", cfg.base, workload, seed, err)
	}
	r.Attempted, r.Failed = s.Attempted, s.Failed
	for name, v := range s.Metrics {
		r.add(name, v.Value)
	}
	return r, nil
}

// batch is one round of w.restarts solves on a compiled handle, run
// w.clients() at a time.
type batch struct {
	wall    time.Duration   // wall time of the round
	latency time.Duration   // summed solve latencies
	mttkrp  time.Duration   // summed Engine.Compute time
	posTime []time.Duration // summed Engine.Compute time per update position
	iters   int             // summed ALS iterations
	solves  int
	failed  int     // solves that errored or ended with a non-finite fit
	fit     float64 // best final fit
	traced  bool    // whether the round recorded spans
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perSolve is the mean latency of the round's successful solves.
func (b batch) perSolve() time.Duration { return b.latency / time.Duration(max(b.solves-b.failed, 1)) }

// solveBatch runs one round on h; solve i of the round is seeded seed+i.
func (w workload) solveBatch(h *handle, seed int64, tr *tracer, parent int) batch {
	type solved struct {
		res     *stef.Result
		err     error
		latency time.Duration
	}
	out := make([]solved, w.restarts)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < w.restarts; i = int(next.Add(1)) - 1 {
				sp := tr.begin("stef.solve", parent)
				t0 := time.Now()
				res, err := h.c.DecomposeSeed(seed + int64(i))
				out[i] = solved{res, err, time.Since(t0)}
				tr.end(sp)
			}
		}()
	}
	wg.Wait()
	b := batch{wall: time.Since(start), fit: math.Inf(-1), traced: tr != nil}

	order := h.c.Engine().UpdateOrder()
	b.posTime = make([]time.Duration, len(order))
	for _, o := range out {
		b.solves++
		if o.err != nil || math.IsNaN(o.res.FinalFit()) || math.IsInf(o.res.FinalFit(), 0) {
			b.failed++
			if o.err != nil {
				fmt.Fprintf(os.Stderr, "%s: solve failed: %v\n", w.name, o.err)
			}
			continue
		}
		b.latency += o.latency
		b.mttkrp += o.res.MTTKRPTime
		for pos, m := range order {
			b.posTime[pos] += o.res.ModeTime[m]
		}
		b.iters += o.res.Iters
		b.fit = math.Max(b.fit, o.res.FinalFit())
	}
	return b
}

// sample is one pass from the input file to fitted models: set-up, the
// first round of solves on the fresh handle (what a user waits for), then
// further rounds on the warm handle until they have taken as long as the
// fit did. The warm rounds give solve_s several samples per set-up.
//
// The warm rounds come in pairs. In a traced sample, set-up and the first
// round are traced, and each pair has one traced and one untraced round,
// adjacent in time and alternating which goes first, so that the pairs
// measure the tracing overhead with the host's drift cancelled.
type sample struct {
	setup time.Duration
	cold  batch
	warm  []batch
}

func (s sample) batches() []batch { return append([]batch{s.cold}, s.warm...) }

func (w workload) runSample(j job, tr *tracer, n int) (sample, error) {
	runtime.GC() // start every sample from the same heap state
	tr.setSample(n)
	root := tr.begin("sample", -1)
	defer tr.end(root)

	var s sample
	start := time.Now()
	h, err := w.setup(j.Dir, j.Iters, tr, root)
	s.setup = time.Since(start)
	if err != nil {
		return s, err
	}
	defer h.Close()
	s.cold = w.solveBatch(h, j.Seed, tr, root)
	fit := time.Since(start)
	for i := 0; i < 2 || i%2 == 1 || time.Since(start) < 2*fit; i++ {
		t := tr
		if (i%2 == 1) != (i/2%2 == 0) { // untraced rounds: 0, 3, 4, 7, 8, ...
			t = nil
		}
		s.warm = append(s.warm, w.solveBatch(h, j.Seed, t, root))
	}
	return s, nil
}

// record adds the sample's end-to-end metrics to r: one set-up and one
// fit, and per warm round its mean solve latency.
func (s sample) record(r *runResult) {
	r.add("setup_s", s.setup.Seconds())
	r.add("time_to_fit_s", (s.setup + s.cold.wall).Seconds())
	for _, b := range s.warm {
		r.add("solve_s", b.perSolve().Seconds())
	}
}

// recordOverhead adds, per pair of warm rounds of a traced sample, the
// traced round's solve latency over the untraced one's, as a percentage
// above 1.
func (s sample) recordOverhead(r *runResult) {
	for i := 0; i+1 < len(s.warm); i += 2 {
		on, off := s.warm[i], s.warm[i+1]
		if off.traced {
			on, off = off, on
		}
		r.add("trace.overhead_pct", (on.perSolve().Seconds()/off.perSolve().Seconds()-1)*100)
	}
}

// runWorker measures one run: an untimed warm-up sample, then samples until
// the job's time is spent. A traced run takes traced samples for the first
// 60% of its time and spends the rest replaying the layers one at a time.
func runWorker(j job) (runResult, error) {
	r := runResult{Samples: make(map[string][]float64)}
	w, err := workloadByName(j.Workload)
	if err != nil {
		return r, err
	}
	var tr *tracer
	if j.Trace {
		tr = newTracer(w.name)
	}
	count := func(s sample) {
		for _, b := range s.batches() {
			r.Attempted += b.solves
			r.Failed += b.failed
		}
	}

	warm, err := w.runSample(j, nil, -1)
	if err != nil {
		return r, err
	}
	count(warm)

	budget := time.Duration(j.Seconds * float64(time.Second))
	start := time.Now()
	sampling := budget
	if j.Trace {
		sampling = budget * 6 / 10
	}
	var traced []batch
	n := 0
	for ; n < minSamples || time.Since(start) < sampling; n++ {
		s, err := w.runSample(j, tr, n)
		if err != nil {
			return r, err
		}
		count(s)
		if !j.Trace {
			s.record(&r)
			continue
		}
		s.recordOverhead(&r)
		for _, b := range s.warm {
			if b.traced {
				traced = append(traced, b)
			}
		}
	}
	if j.Trace {
		if err := w.traceLayers(j, tr, traced, n, &r, time.Until(start.Add(budget))); err != nil {
			return r, err
		}
		if j.TraceOut != "" {
			if err := tr.write(j.TraceOut); err != nil {
				return r, err
			}
		}
		return r, nil
	}
	hwm, err := peakRSS()
	if err != nil {
		return r, err
	}
	r.add("rss_peak_mb", hwm/1e6)
	return r, nil
}

// peakRSS returns the process's peak resident set in bytes: VmHWM, which
// covers this process image only. getrusage's maxrss would also count the
// parent's peak, which Linux carries across exec.
func peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
