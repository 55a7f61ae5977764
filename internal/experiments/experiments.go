// Package experiments regenerates every table and figure of the paper's
// evaluation section on the synthetic benchmark suite: Table I (tensor
// inventory), Figures 3/4 (engine speedups relative to splatt-all at R=32
// and 64), Figure 5 (preprocessing overhead of the mode-order decision),
// Table II (memoization storage) and Figure 6 (ablations of the three
// optimizations). Both cmd/stef-bench and the repository-level Go
// benchmarks drive this package.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"stef/internal/baselines"
	"stef/internal/core"
	"stef/internal/cpd"
	"stef/internal/csf"
	"stef/internal/dtree"
	"stef/internal/sched"
	"stef/internal/stats"
	"stef/internal/tensor"
)

// Options configures a benchmark run.
type Options struct {
	// Ranks to evaluate (default {32, 64}).
	Ranks []int
	// Threads used by every engine (default GOMAXPROCS).
	Threads int
	// Reps is the number of timing repetitions; the minimum is reported
	// (default 3).
	Reps int
	// Tensors selects benchmark tensors by name (default: all profiles).
	Tensors []string
	// Scale multiplies each profile's non-zero count (default 1.0) so
	// quick runs can use smaller instances.
	Scale float64
	// CacheBytes parameterises STeF's data-movement model.
	CacheBytes int64
	// Engines restricts the engine set by name (default: all).
	Engines []string
	// Out receives the rendered tables (default discards).
	Out io.Writer
}

func (o Options) withDefaults() Options {
	if len(o.Ranks) == 0 {
		o.Ranks = []int{32, 64}
	}
	if o.Threads < 1 {
		o.Threads = runtime.GOMAXPROCS(0)
	}
	if o.Reps < 1 {
		o.Reps = 3
	}
	if len(o.Tensors) == 0 {
		o.Tensors = tensor.ProfileNames()
	}
	if o.Scale <= 0 {
		o.Scale = 1.0
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
	return o
}

// Suite caches generated tensors across experiments.
type Suite struct {
	Opts    Options
	tensors map[string]*tensor.Tensor
}

// NewSuite creates a suite with defaults applied.
func NewSuite(opts Options) *Suite {
	return &Suite{Opts: opts.withDefaults(), tensors: map[string]*tensor.Tensor{}}
}

// Tensor generates (or returns the cached) benchmark tensor by name.
func (s *Suite) Tensor(name string) (*tensor.Tensor, error) {
	if tt, ok := s.tensors[name]; ok {
		return tt, nil
	}
	p, err := tensor.ProfileByName(name)
	if err != nil {
		return nil, err
	}
	if s.Opts.Scale != 1.0 {
		p.NNZ = int(float64(p.NNZ) * s.Opts.Scale)
		if p.NNZ < 1000 {
			p.NNZ = 1000
		}
	}
	tt := p.Generate()
	s.tensors[name] = tt
	return tt, nil
}

// EngineSpec names an engine construction.
type EngineSpec struct {
	Name  string
	Build func(tt *tensor.Tensor, threads, rank int, cacheBytes int64) (cpd.Engine, error)
}

// AllEngines returns the full engine roster in the paper's comparison
// order: the five baselines, then STeF and STeF2.
func AllEngines() []EngineSpec {
	return []EngineSpec{
		{"splatt-1", func(tt *tensor.Tensor, t, r int, _ int64) (cpd.Engine, error) {
			return baselines.NewSplatt(tt, baselines.SplattOptions{Copies: 1, Threads: t, Rank: r}), nil
		}},
		{"splatt-2", func(tt *tensor.Tensor, t, r int, _ int64) (cpd.Engine, error) {
			return baselines.NewSplatt(tt, baselines.SplattOptions{Copies: 2, Threads: t, Rank: r}), nil
		}},
		{"splatt-all", func(tt *tensor.Tensor, t, r int, _ int64) (cpd.Engine, error) {
			return baselines.NewSplatt(tt, baselines.SplattOptions{Copies: -1, Threads: t, Rank: r}), nil
		}},
		{"adatm", func(tt *tensor.Tensor, t, r int, _ int64) (cpd.Engine, error) {
			return baselines.NewAdaTM(tt, baselines.AdaTMOptions{Threads: t, Rank: r}), nil
		}},
		{"alto", func(tt *tensor.Tensor, t, r int, _ int64) (cpd.Engine, error) {
			return baselines.NewALTO(tt, baselines.ALTOOptions{Threads: t, Rank: r})
		}},
		{"taco", func(tt *tensor.Tensor, t, r int, _ int64) (cpd.Engine, error) {
			return baselines.NewTACO(tt, baselines.TACOOptions{Threads: t, Rank: r}), nil
		}},
		{"stef", func(tt *tensor.Tensor, t, r int, cache int64) (cpd.Engine, error) {
			eng, _, err := core.NewEngineFor(tt, core.Options{Rank: r, Threads: t, CacheBytes: cache})
			return eng, err
		}},
		{"stef2", func(tt *tensor.Tensor, t, r int, cache int64) (cpd.Engine, error) {
			eng, _, err := core.NewEngineFor(tt, core.Options{Rank: r, Threads: t, CacheBytes: cache, SecondCSF: true})
			return eng, err
		}},
	}
}

// ExtraEngines returns engines beyond the paper's comparison set (selected
// only when named explicitly via Options.Engines).
func ExtraEngines() []EngineSpec {
	return []EngineSpec{
		{"hicoo", func(tt *tensor.Tensor, t, r int, _ int64) (cpd.Engine, error) {
			return baselines.NewHiCOO(tt, baselines.HiCOOOptions{Threads: t, Rank: r})
		}},
		{"dtree", func(tt *tensor.Tensor, t, r int, _ int64) (cpd.Engine, error) {
			return dtree.NewEngine(tt, dtree.Options{Threads: t, Rank: r})
		}},
	}
}

func (s *Suite) engines() []EngineSpec {
	all := AllEngines()
	if len(s.Opts.Engines) == 0 {
		return all
	}
	all = append(all, ExtraEngines()...)
	want := map[string]bool{}
	for _, n := range s.Opts.Engines {
		want[n] = true
	}
	var out []EngineSpec
	for _, e := range all {
		if want[e.Name] {
			out = append(out, e)
		}
	}
	return out
}

// TimeIteration measures the wall time of one full MTTKRP sequence (all d
// modes in the engine's update order) with fixed factor matrices,
// returning the minimum over reps repetitions — the quantity the paper
// reports per CPD iteration.
func TimeIteration(eng cpd.Engine, dims []int, rank, reps int) time.Duration {
	d := len(dims)
	factors := tensor.RandomFactors(dims, rank, 7)
	order := eng.UpdateOrder()
	outs := make([]*tensor.Matrix, d)
	for pos := 0; pos < d; pos++ {
		outs[pos] = tensor.NewMatrix(dims[order[pos]], rank)
	}
	// The workspace is created (and its buffers allocated) outside the
	// timed region: steady-state MTTKRP cost is what the paper reports.
	ws := eng.NewWorkspace()
	ws.Reset()
	best := time.Duration(1<<62 - 1)
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		for pos := 0; pos < d; pos++ {
			eng.Compute(ws, pos, factors, outs[pos])
		}
		if el := time.Since(start); el < best {
			best = el
		}
	}
	return best
}

// SpeedupRow holds one tensor's relative performance for Figures 3/4.
type SpeedupRow struct {
	Tensor   string
	Rank     int
	Times    map[string]time.Duration
	Speedups map[string]float64 // relative to splatt-all (higher is better)
}

// Fig34 runs the Figure 3/4 comparison: every engine on every tensor at
// every rank, reporting speedup relative to splatt-all. label distinguishes
// machine profiles ("fig3-intel18", "fig4-amd64") in the output.
func (s *Suite) Fig34(label string) ([]SpeedupRow, error) {
	var rows []SpeedupRow
	engines := s.engines()
	for _, rank := range s.Opts.Ranks {
		for _, name := range s.Opts.Tensors {
			tt, err := s.Tensor(name)
			if err != nil {
				return nil, err
			}
			row := SpeedupRow{Tensor: name, Rank: rank, Times: map[string]time.Duration{}, Speedups: map[string]float64{}}
			for _, spec := range engines {
				eng, err := spec.Build(tt, s.Opts.Threads, rank, s.Opts.CacheBytes)
				if err != nil {
					return nil, fmt.Errorf("%s on %s: %w", spec.Name, name, err)
				}
				row.Times[spec.Name] = TimeIteration(eng, tt.Dims, rank, s.Opts.Reps)
				eng = nil
				runtime.GC()
			}
			base, ok := row.Times["splatt-all"]
			if !ok {
				base = row.Times[engines[0].Name]
			}
			for n, t := range row.Times {
				row.Speedups[n] = float64(base) / float64(t)
			}
			rows = append(rows, row)
		}
	}
	s.renderFig34(label, rows)
	return rows, nil
}

func (s *Suite) renderFig34(label string, rows []SpeedupRow) {
	w := s.Opts.Out
	names := engineNames(s.engines())
	for _, rank := range s.Opts.Ranks {
		fmt.Fprintf(w, "\n== %s: speedup over splatt-all, R=%d, T=%d (higher is better) ==\n", label, rank, s.Opts.Threads)
		tab := stats.NewTable(append([]string{"tensor"}, names...)...)
		perEngine := map[string][]float64{}
		for _, row := range rows {
			if row.Rank != rank {
				continue
			}
			cells := []interface{}{row.Tensor}
			for _, n := range names {
				cells = append(cells, fmt.Sprintf("%.2f", row.Speedups[n]))
				perEngine[n] = append(perEngine[n], row.Speedups[n])
			}
			tab.AddRow(cells...)
		}
		gm := []interface{}{"geomean"}
		for _, n := range names {
			gm = append(gm, fmt.Sprintf("%.2f", stats.GeoMean(perEngine[n])))
		}
		tab.AddRow(gm...)
		tab.Render(w)
	}
}

func engineNames(specs []EngineSpec) []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// sortedTensorNames is a helper for deterministic map iteration.
func sortedTensorNames(m map[string]*tensor.Tensor) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Table1 prints the generated benchmark suite: the analogue of the paper's
// Table I, with the scaled dimensions and realised non-zero counts, plus
// the structural statistics (root slices, average fiber lengths) the
// engines' behaviour depends on.
func (s *Suite) Table1() error {
	w := s.Opts.Out
	fmt.Fprintf(w, "\n== Table I: benchmark tensors (scaled synthetic reproductions) ==\n")
	tab := stats.NewTable("tensor", "dims", "nnz", "rootslices", "avgfib(d-2)", "swapfib(d-2)")
	for _, name := range s.Opts.Tensors {
		tt, err := s.Tensor(name)
		if err != nil {
			return err
		}
		tree := csf.Build(tt, nil)
		d := tree.Order()
		dims := ""
		for i, n := range tt.Dims {
			if i > 0 {
				dims += "x"
			}
			dims += fmt.Sprint(n)
		}
		swap := tree.CountSwappedFibers(s.Opts.Threads)
		tab.AddRow(name, dims, tt.NNZ(), tree.NumFibers(0),
			fmt.Sprintf("%.2f", float64(tree.NNZ())/float64(tree.NumFibers(d-2))),
			swap)
	}
	tab.Render(w)
	return nil
}

// Fig5Row holds one preprocessing-overhead measurement.
type Fig5Row struct {
	Tensor     string
	Rank       int
	Preprocess time.Duration
	Iteration  time.Duration
	Pct        float64
}

// Fig5 measures the Algorithm 9 + model-search preprocessing time as a
// percentage of one CPD iteration's MTTKRP time (the paper's Figure 5).
func (s *Suite) Fig5() ([]Fig5Row, error) {
	w := s.Opts.Out
	var rows []Fig5Row
	for _, rank := range s.Opts.Ranks {
		fmt.Fprintf(w, "\n== Fig 5: preprocessing overhead (%% of one iteration), R=%d ==\n", rank)
		tab := stats.NewTable("tensor", "preprocess", "iteration", "overhead%")
		var pcts []float64
		for _, name := range s.Opts.Tensors {
			tt, err := s.Tensor(name)
			if err != nil {
				return nil, err
			}
			eng, plan, err := core.NewEngineFor(tt, core.Options{Rank: rank, Threads: s.Opts.Threads, CacheBytes: s.Opts.CacheBytes})
			if err != nil {
				return nil, err
			}
			iter := TimeIteration(eng, tt.Dims, rank, s.Opts.Reps)
			pct := 100 * float64(plan.PreprocessTime) / float64(iter)
			rows = append(rows, Fig5Row{name, rank, plan.PreprocessTime, iter, pct})
			pcts = append(pcts, pct)
			tab.AddRow(name, plan.PreprocessTime.String(), iter.String(), fmt.Sprintf("%.1f", pct))
		}
		tab.AddRow("average", "", "", fmt.Sprintf("%.1f", stats.Mean(pcts)))
		tab.Render(w)
	}
	return rows, nil
}

// Table2Row holds one memoization-storage measurement.
type Table2Row struct {
	Tensor                         string
	Rank                           int
	MemoBytes, CSFPlusFactorsBytes int64
	Ratio                          float64
}

// Table2 reports the storage cost of the model-selected memoized partial
// results relative to the CSF structure plus factor matrices (Table II).
func (s *Suite) Table2() ([]Table2Row, error) {
	w := s.Opts.Out
	var rows []Table2Row
	fmt.Fprintf(w, "\n== Table II: memoized partial-result storage ==\n")
	header := []string{"tensor"}
	for _, r := range s.Opts.Ranks {
		header = append(header, fmt.Sprintf("memoMB(R=%d)", r), fmt.Sprintf("baseMB(R=%d)", r), fmt.Sprintf("ratio(R=%d)", r))
	}
	tab := stats.NewTable(header...)
	sums := make([]float64, len(s.Opts.Ranks))
	for _, name := range s.Opts.Tensors {
		tt, err := s.Tensor(name)
		if err != nil {
			return nil, err
		}
		cells := []interface{}{name}
		for ri, rank := range s.Opts.Ranks {
			plan, err := core.NewPlan(tt, core.Options{Rank: rank, Threads: s.Opts.Threads, CacheBytes: s.Opts.CacheBytes})
			if err != nil {
				return nil, err
			}
			base := plan.CSFBytes + plan.FactorBytes
			rows = append(rows, Table2Row{name, rank, plan.MemoBytes, base, plan.Ratio()})
			cells = append(cells,
				fmt.Sprintf("%.2f", float64(plan.MemoBytes)/(1<<20)),
				fmt.Sprintf("%.2f", float64(base)/(1<<20)),
				fmt.Sprintf("%.2f", plan.Ratio()))
			sums[ri] += plan.Ratio()
		}
		tab.AddRow(cells...)
	}
	avg := []interface{}{"average"}
	for ri := range s.Opts.Ranks {
		avg = append(avg, "", "", fmt.Sprintf("%.2f", sums[ri]/float64(len(s.Opts.Tensors))))
	}
	tab.AddRow(avg...)
	tab.Render(w)
	return rows, nil
}

// Fig6Row holds one ablation measurement: performance of a variant
// normalised to the model-chosen configuration (100% = same speed).
type Fig6Row struct {
	Tensor  string
	Variant string
	Pct     float64
}

// Fig6 runs the ablation study: the model-chosen STeF configuration versus
// (1) slice-based work distribution, (2) save-all and save-none
// memoization, and (3) the opposite last-two-mode layout. Values are
// normalised performance (model-chosen time / variant time × 100; below
// 100 means the variant is slower), matching Figure 6.
func (s *Suite) Fig6(rank int) ([]Fig6Row, error) {
	w := s.Opts.Out
	variants := []struct {
		name string
		opts core.Options
	}{
		{"slice-sched", core.Options{SliceSched: true}},
		{"save-all", core.Options{SaveRule: core.SaveAll}},
		{"save-none", core.Options{SaveRule: core.SaveNone}},
		{"swap-opposite", core.Options{SwapRule: core.SwapOpposite}},
	}
	fmt.Fprintf(w, "\n== Fig 6: ablations, normalised to model-chosen config (100%% = equal; lower = slower), R=%d ==\n", rank)
	header := []string{"tensor"}
	for _, v := range variants {
		header = append(header, v.name)
	}
	tab := stats.NewTable(header...)
	var rows []Fig6Row
	perVariant := map[string][]float64{}
	for _, name := range s.Opts.Tensors {
		tt, err := s.Tensor(name)
		if err != nil {
			return nil, err
		}
		baseEng, _, err := core.NewEngineFor(tt, core.Options{Rank: rank, Threads: s.Opts.Threads, CacheBytes: s.Opts.CacheBytes})
		if err != nil {
			return nil, err
		}
		baseTime := TimeIteration(baseEng, tt.Dims, rank, s.Opts.Reps)
		cells := []interface{}{name}
		for _, v := range variants {
			o := v.opts
			o.Rank = rank
			o.Threads = s.Opts.Threads
			o.CacheBytes = s.Opts.CacheBytes
			eng, _, err := core.NewEngineFor(tt, o)
			if err != nil {
				return nil, err
			}
			vt := TimeIteration(eng, tt.Dims, rank, s.Opts.Reps)
			pct := 100 * float64(baseTime) / float64(vt)
			rows = append(rows, Fig6Row{name, v.name, pct})
			perVariant[v.name] = append(perVariant[v.name], pct)
			cells = append(cells, fmt.Sprintf("%.0f", pct))
		}
		tab.AddRow(cells...)
	}
	avg := []interface{}{"geomean"}
	for _, v := range variants {
		avg = append(avg, fmt.Sprintf("%.0f", stats.GeoMean(perVariant[v.name])))
	}
	tab.AddRow(avg...)
	tab.Render(w)
	return rows, nil
}

// WorkDistReport prints the modeled load-balance comparison underpinning
// Fig. 6's work-distribution ablation: per-thread non-zero loads and
// imbalance under slice-based versus non-zero-balanced partitioning. These
// counts are exact and machine-independent.
func (s *Suite) WorkDistReport() error {
	w := s.Opts.Out
	fmt.Fprintf(w, "\n== Work distribution: leaf-load imbalance (T=%d) ==\n", s.Opts.Threads)
	tab := stats.NewTable("tensor", "rootslices", "slice-imb%", "balanced-imb%")
	for _, name := range s.Opts.Tensors {
		tt, err := s.Tensor(name)
		if err != nil {
			return err
		}
		tree := csf.Build(tt, nil)
		sp := sched.NewSlicePartitionNNZ(tree, s.Opts.Threads)
		bp := sched.NewPartition(tree, s.Opts.Threads)
		tab.AddRow(name, tree.NumFibers(0),
			fmt.Sprintf("%.1f", sched.ImbalancePct(sp.SliceLoads(tree))),
			fmt.Sprintf("%.1f", sched.ImbalancePct(bp.Loads())))
	}
	tab.Render(w)
	return nil
}
