package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"

	"stef/internal/model"
)

// metric is one reported quantity. bound, set for end-to-end metrics only,
// is the share of the base median by which the metric may get worse before
// a change counts as a regression. BENCHMARK.json repeats these
// definitions; the smoke test keeps the two in step.
//
// best marks a timing that a run reports as its fastest sample instead of
// its median. On a shared host, interference from other tenants only ever
// adds time, and it comes and goes within a run as well as over minutes;
// the fastest of a run's samples moves less with it than the median does
// (see README.md).
type metric struct {
	name, unit, better string
	bound              float64
	best               bool
}

// endToEnd lists what a user of the library sees, measured untraced.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "solve_s", unit: "s", better: "lower", bound: 0.25, best: true},
	{name: "time_to_fit_s", unit: "s", better: "lower", bound: 0.25, best: true},
	{name: "rss_peak_mb", unit: "MB", better: "lower", bound: 0.25},
}

// runValue is what one run reports for m, given its samples: the fastest
// for a best metric, otherwise the median.
func (m metric) runValue(xs []float64) float64 {
	if !m.best || len(xs) == 0 {
		return median(xs)
	}
	if m.better == "higher" {
		return slices.Max(xs)
	}
	return slices.Min(xs)
}

// maxOrder bounds the per-level and per-position metric families; every
// workload emits all of them, with 0 for levels its tensor does not have.
const maxOrder = 5

// perLayer lists the traced pass's metrics, named by module. Times are per
// set-up for the set-up layers and per ALS iteration for the rest.
var perLayer = func() []metric {
	ms := func(format string, a ...any) metric {
		return metric{name: fmt.Sprintf(format, a...), unit: "ms", better: "lower"}
	}
	out := []metric{
		ms("frostt.read_ms"),
		{name: "frostt.read_mb_s", unit: "MB/s", better: "higher"},
		ms("csf.build_ms"),
		ms("csf.alg9_ms"),
		ms("csf.open_arena_ms"),
		{name: "csf.tree_mb", unit: "MB", better: "lower"},
		ms("sched.partition_ms"),
		ms("kernels.census_ms"),
		ms("core.plan_ms"),
		ms("core.plan_self_ms"),
		ms("stef.compile_ms"),
		ms("core.compute_ms"),
	}
	for pos := 0; pos < maxOrder; pos++ {
		out = append(out, ms("core.compute.pos%d_ms", pos))
	}
	out = append(out, ms("kernels.L0.walk_ms"))
	for l := 1; l < maxOrder; l++ {
		out = append(out, ms("kernels.L%d.walk_ms", l), ms("kernels.L%d.reset_ms", l), ms("kernels.L%d.reduce_ms", l))
	}
	for l := 0; l < maxOrder; l++ {
		out = append(out,
			metric{name: fmt.Sprintf("kernels.L%d.model_mb", l), unit: "MB", better: "lower"},
			metric{name: fmt.Sprintf("kernels.L%d.gb_s", l), unit: "GB/s", better: "higher"})
	}
	return append(out,
		metric{name: "kernels.replay_ok", unit: "count", better: "higher"},
		ms("cpd.dense_self_ms"),
		ms("dense.gram_ms"),
		ms("dense.cholesky_ms"),
		ms("dense.solve_rows_ms"),
		ms("dense.normalize_ms"),
		metric{name: "sched.imbalance_pct", unit: "%", better: "lower"},
		metric{name: "model.memo_mb", unit: "MB", better: "lower"},
		metric{name: "model.iter_mb", unit: "MB", better: "lower"},
		metric{name: "cpd.fit", unit: "ratio", better: "higher"},
		metric{name: "trace.overhead_pct", unit: "%", better: "lower"},
	)
}()

// quartiles returns the first quartile, median and third quartile of xs
// as Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so spreads read the same here as in any check
// written against that function.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	n := len(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// stat summarises one metric over n values: the samples of a single run,
// or the run values of a multi-seed set. Value is what the metric reads:
// the run value of a single run, or the median run value of a set.
type stat struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound,omitempty"`
	Value  float64   `json:"value"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func newStat(m metric, xs []float64, value float64) stat {
	q1, med, q3 := quartiles(xs)
	return stat{Unit: m.unit, Better: m.better, Bound: m.bound, Value: value, Median: med, Q1: q1, Q3: q3, N: len(xs), Values: xs}
}

// spread is the interquartile range as a share of the median.
func (s stat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// provenance records the host and build a results file was measured on.
type provenance struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"vcs_revision"`
	Modified   string `json:"vcs_modified"`
	CPU        string `json:"cpu_model"`
	CacheBytes int64  `json:"model_cache_bytes"`
}

func hostProvenance() provenance {
	p := provenance{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
		Modified:   "unknown",
		CPU:        "unknown",
		CacheBytes: model.DefaultCacheBytes,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return p
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Provenance provenance       `json:"provenance"`
	Seconds    float64          `json:"seconds"`
	Trace      bool             `json:"trace"`
	Workloads  []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name      string  `json:"name"`
	Seeds     []int64 `json:"seeds"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Metrics holds the end-to-end metrics of an untraced set, or the
	// per-layer metrics of a traced one.
	Metrics map[string]stat `json:"metrics"`
}

// aggregate summarises the runs of one workload. A single run reports its
// samples; several runs (one per seed) report the spread of their run
// values. A metric no run measured, such as one a base commit's benchmark
// did not have, is left out.
func aggregate(name string, seeds []int64, runs []runResult, defs []metric) workloadResult {
	wr := workloadResult{Name: name, Seeds: seeds, Metrics: make(map[string]stat)}
	for _, r := range runs {
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
	}
	for _, m := range defs {
		var xs []float64
		var value float64
		if len(runs) == 1 {
			xs = runs[0].Samples[m.name]
			value = m.runValue(xs)
		} else {
			for _, r := range runs {
				if s, ok := r.Samples[m.name]; ok {
					xs = append(xs, m.runValue(s))
				}
			}
			value = median(xs)
		}
		if len(xs) > 0 {
			wr.Metrics[m.name] = newStat(m, xs, value)
		}
	}
	return wr
}

// printWorkload writes one workload's metrics as a table.
func printWorkload(w io.Writer, wr workloadResult, defs []metric) {
	fmt.Fprintf(w, "%s (seeds %v): %d solves attempted, %d failed, fail_frac %.3g\n",
		wr.Name, wr.Seeds, wr.Attempted, wr.Failed, float64(wr.Failed)/float64(max(wr.Attempted, 1)))
	fmt.Fprintf(w, "  %-24s %-6s %12s %12s %12s %12s %4s %8s %6s\n", "metric", "unit", "value", "median", "q1", "q3", "n", "spread", "bound")
	for _, m := range defs {
		s, ok := wr.Metrics[m.name]
		if !ok {
			continue
		}
		bound := "-"
		if m.bound > 0 {
			bound = fmt.Sprintf("%.0f%%", m.bound*100)
		}
		fmt.Fprintf(w, "  %-24s %-6s %12.5g %12.5g %12.5g %12.5g %4d %7.2f%% %6s\n", m.name, m.unit, s.Value, s.Median, s.Q1, s.Q3, s.N, s.spread()*100, bound)
	}
}

func readResults(path string) (resultsFile, error) {
	var f resultsFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func writeResults(path string, f resultsFile) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// verdict classifies head against base for one metric, following the
// rule that a change may not make any metric worse by more than its bound,
// and that a spread wider than the bound leaves the metric unresolved
// unless every head value beats every base value. Metrics without a bound
// (per-layer ones) get no verdict.
//
// When the two sides are paired, value i of each was measured on the same
// seed. Measured with -base, the two runs of a pair also follow each other,
// so host drift over the set cancels in the per-pair changes. The verdict
// then rests on the median per-pair change, and the spread that counts is
// that of the changes. Unpaired, it compares the two values, and the spread
// of either side counts.
func verdict(base, head stat, paired bool) string {
	if base.Bound == 0 {
		return ""
	}
	sign := 1.0 // +1 when larger is worse
	if base.Better == "higher" {
		sign = -1
	}
	change := func(b, h float64) float64 { return sign * (h - b) / math.Abs(b) }
	allBetter := len(base.Values) > 0 && len(head.Values) > 0
	var c float64
	var noisy bool
	if paired {
		cs := make([]float64, len(base.Values))
		for i, b := range base.Values {
			cs[i] = change(b, head.Values[i])
			allBetter = allBetter && cs[i] < 0
		}
		var q1, q3 float64
		q1, c, q3 = quartiles(cs)
		noisy = q3-q1 > base.Bound
	} else {
		for _, b := range base.Values {
			for _, h := range head.Values {
				allBetter = allBetter && change(b, h) < 0
			}
		}
		c = change(base.Value, head.Value)
		noisy = base.spread() > base.Bound || head.spread() > base.Bound
	}
	switch {
	case noisy && allBetter:
		return "better"
	case noisy:
		return "unresolved"
	case c > base.Bound:
		return "worse"
	case c < -base.Bound:
		return "better"
	}
	return "within bound"
}

// pairedWith reports whether the values of a and b come in pairs: one per
// seed, on the same seeds in the same order.
func (a workloadResult) pairedWith(b workloadResult) bool {
	return len(a.Seeds) > 1 && slices.Equal(a.Seeds, b.Seeds)
}

// compareResults prints, for every (workload, metric) pair present in both
// files, the two values, their ratio and the verdict, and returns how
// many pairs came out worse.
func compareResults(w io.Writer, base, head resultsFile) int {
	worse := 0
	for _, hw := range head.Workloads {
		var bw *workloadResult
		for i := range base.Workloads {
			if base.Workloads[i].Name == hw.Name {
				bw = &base.Workloads[i]
			}
		}
		if bw == nil {
			fmt.Fprintf(w, "%s: not in the base file\n", hw.Name)
			continue
		}
		pairs := "unpaired: ratio of the values"
		if bw.pairedWith(hw) {
			pairs = fmt.Sprintf("paired on seeds %v: median per-pair ratio", hw.Seeds)
		}
		fmt.Fprintf(w, "%s (%s)\n  %-24s %-6s %12s %12s %8s  %s\n", hw.Name, pairs, "metric", "unit", "base", "head", "ratio", "verdict")
		names := make([]string, 0, len(hw.Metrics))
		for name := range hw.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			h := hw.Metrics[name]
			b, ok := bw.Metrics[name]
			if !ok {
				fmt.Fprintf(w, "  %-24s %-6s %12s %12.5g %8s  %s\n", name, h.Unit, "-", h.Value, "-", "new")
				continue
			}
			paired := bw.pairedWith(hw) && len(b.Values) == len(h.Values)
			v := verdict(b, h, paired)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "  %-24s %-6s %12.5g %12.5g %8.4f  %s\n", name, h.Unit, b.Value, h.Value, ratio(b, h, paired), v)
		}
	}
	return worse
}

// ratio is head over base: the median of the per-pair ratios when paired,
// else the ratio of the two values. Equal values read exactly 1, zeros
// included.
func ratio(base, head stat, paired bool) float64 {
	r := func(b, h float64) float64 {
		if b == h {
			return 1
		}
		return h / b
	}
	if !paired {
		return r(base.Value, head.Value)
	}
	rs := make([]float64, len(base.Values))
	for i, b := range base.Values {
		rs[i] = r(b, head.Values[i])
	}
	return median(rs)
}
