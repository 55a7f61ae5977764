// Package stef is the top-level API of this reproduction of
// "Sparsity-Aware Tensor Decomposition" (Kurt et al., IPDPS 2022): CPD-ALS
// for sparse tensors built on memoized, load-balanced MTTKRP kernels over a
// single CSF representation, with a data-movement model choosing the
// memoization set and mode layout per tensor.
//
// The heavy lifting lives in the internal packages (see DESIGN.md for the
// full inventory); this package wires them together behind one call:
//
//	t, _ := stef.LoadTensor("data.tns")
//	res, _ := stef.Decompose(t, stef.Options{Rank: 32, Threads: 8})
//	fmt.Println(res.FinalFit())
//
// When the same tensor is factorised repeatedly — restarts, rank sweeps,
// hyper-parameter searches — Compile splits the work: all preprocessing
// (reordering, CSF construction, the data-movement model search) runs once,
// and the returned handle solves many times, concurrently if desired, from
// a pool of recycled workspaces:
//
//	c, _ := stef.Compile(t, stef.Options{Rank: 32, Threads: 8})
//	best, _ := c.DecomposeBest(8) // 8 restarts, one plan
//
// Engines other than STeF (the baselines from the paper's evaluation) can
// be selected by name, which makes head-to-head comparisons one flag away.
package stef

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"stef/internal/baselines"
	"stef/internal/core"
	"stef/internal/cpd"
	"stef/internal/csf"
	"stef/internal/dtree"
	"stef/internal/frostt"
	"stef/internal/par"
	"stef/internal/reorder"
	"stef/internal/tensor"
)

// Options configures Decompose.
type Options struct {
	// Rank is the number of CP components (default 16).
	Rank int
	// MaxIters bounds ALS iterations (default 50).
	MaxIters int
	// Tol is the fit-change convergence tolerance (default 1e-5;
	// negative runs all iterations).
	Tol float64
	// Threads is the worker count of the MTTKRP kernels and of the dense
	// factor update (default 1).
	Threads int
	// Seed seeds the random initial factors.
	Seed int64
	// Engine selects the MTTKRP engine: "stef" (default), "stef2",
	// "splatt-1", "splatt-2", "splatt-all", "adatm", "alto", "taco",
	// "hicoo", "dtree" or "naive". At Threads > 1, "taco" schedules its
	// slices dynamically, so its non-root MTTKRPs, and with them the
	// solve, differ in the last bits from run to run.
	Engine string
	// CacheBytes parameterises STeF's data-movement model (0 = default).
	CacheBytes int64
	// MaxPrivElems bounds per-thread output privatization in the MTTKRP
	// buffers (0 = engine default, 2^24 elements). stef and stef2
	// privatize a non-root output whose rows·R·T fits it — thread 0
	// accumulates in the output itself and every thread after the first
	// gets a private copy — and take the hybrid strategy past it; the
	// baselines scatter past it with CAS adds.
	MaxPrivElems int64
	// Reorder optionally relabels tensor indices before decomposition to
	// improve locality: "" (none), "lexi" (Lexi-Order) or "bfsmcs"
	// (BFS-MCS), both from Li et al. (ICS'19). Factor matrices are
	// mapped back to the original index space before being returned.
	Reorder string
}

// Result re-exports the CPD result type.
type Result = cpd.Result

// NonFiniteError re-exports the error a solve returns when a factor or
// the fit goes non-finite; match it with errors.As.
type NonFiniteError = cpd.NonFiniteError

// Compiled is a compile-once/solve-many handle: the immutable plan (index
// reordering, CSF trees, partitions, memoization config) built once by
// Compile, plus a pool of solve workspaces. All methods are safe to call
// concurrently; simultaneous solves share the plan and draw distinct
// workspaces from the pool.
type Compiled struct {
	opts   Options // after normalize
	dims   []int
	normX  float64
	perms  reorder.Perms
	solver *cpd.Solver
	plan   *core.Plan // nil unless the engine is stef/stef2
}

// Compile runs every per-tensor preprocessing step — optional index
// reordering, CSF construction and the data-movement model search — and
// returns a handle whose Decompose variants reuse that work across solves.
// A NaN or ±Inf value is an error, named by its non-zero and coordinates.
func Compile(t *tensor.Tensor, opts Options) (*Compiled, error) {
	opts, co, err := normalize(opts)
	if err != nil {
		return nil, err
	}
	in := t
	var perms reorder.Perms
	switch opts.Reorder {
	case "lexi":
		perms = reorder.LexiOrder(t, 3)
	case "bfsmcs":
		perms = reorder.BFSMCS(t)
	}
	if perms != nil {
		t = reorder.Apply(t, perms)
	}
	normX := t.NormFrobenius()
	if err := nonFinite(normX, in.Vals, in.Coord); err != nil {
		return nil, err
	}
	eng, plan, err := buildEngine(t, opts, co)
	if err != nil {
		return nil, err
	}
	return &Compiled{
		opts:   opts,
		dims:   append([]int(nil), t.Dims...),
		normX:  normX,
		perms:  perms,
		solver: cpd.NewSolver(eng),
		plan:   plan,
	}, nil
}

// CompileTree builds a compile-once/solve-many handle from a pre-built CSF
// tree — typically one opened zero-copy from an arena file:
//
//	tree, _ := stef.OpenArena("tensor.stef")
//	defer tree.Close()
//	c, _ := stef.CompileTree(tree, stef.Options{Rank: 32, Threads: 8})
//
// The reorder and CSF-build preprocessing is skipped (it was paid when the
// arena was packed), so compilation costs only the memoization search and
// the work-distribution census — an arena-backed 100M+-nnz tensor reaches
// its first solve without the non-zeros ever being copied to the heap.
//
// Only the stef engine is supported: baselines and stef2 build their own
// representations from the COO tensor, which a pre-built tree no longer
// has (for the same reason Options.Reorder must be empty). The caller
// keeps ownership of the tree: close its backing only after the handle's
// last solve. A NaN or ±Inf value is an error, named by its leaf position
// and coordinates.
func CompileTree(tree *csf.Tree, opts Options) (*Compiled, error) {
	opts, co, err := normalize(opts)
	if err != nil {
		return nil, err
	}
	if opts.Engine != "" && opts.Engine != "stef" {
		return nil, fmt.Errorf("stef: engine %q cannot run from a pre-built tree (needs the COO tensor); use engine \"stef\"", opts.Engine)
	}
	if opts.Reorder != "" {
		return nil, fmt.Errorf("stef: reordering %q needs the COO tensor; reorder before packing the arena instead", opts.Reorder)
	}
	// Stream the values once for ||X||_F, and reject non-finite ones
	// before planning.
	var sq float64
	for _, v := range tree.ValsLevel() {
		sq += v * v
	}
	normX := math.Sqrt(sq)
	if err := nonFinite(normX, tree.ValsLevel(), func(k int) []int32 { return leafCoord(tree, k) }); err != nil {
		return nil, err
	}
	plan, err := core.NewPlanFromTree(tree, co)
	if err != nil {
		return nil, err
	}
	// The solver works in original mode order; undo the tree's level
	// permutation for the dims.
	dims := make([]int, tree.Order())
	for l, m := range tree.Perm() {
		dims[m] = tree.Dim(l)
	}
	return &Compiled{
		opts:   opts,
		dims:   dims,
		normX:  normX,
		solver: cpd.NewSolver(core.NewEngine(plan)),
		plan:   plan,
	}, nil
}

// normalize is the one option-normalisation step of every entry point:
// it applies the rank (16) and thread (1) defaults, rejects a negative
// MaxIters and checks the Reorder and Engine names. It returns the
// normalised options and the planner options of the stef and stef2
// engines.
func normalize(opts Options) (Options, core.Options, error) {
	if opts.MaxIters < 0 {
		return opts, core.Options{}, fmt.Errorf("stef: MaxIters %d is negative", opts.MaxIters)
	}
	if opts.Rank <= 0 {
		opts.Rank = 16
	}
	if opts.Threads < 1 {
		opts.Threads = 1
	}
	switch opts.Reorder {
	case "", "lexi", "bfsmcs":
	default:
		return opts, core.Options{}, fmt.Errorf("stef: unknown reordering %q", opts.Reorder)
	}
	if !plans(opts.Engine) && baselineEngines[opts.Engine] == nil {
		return opts, core.Options{}, fmt.Errorf("stef: unknown engine %q", opts.Engine)
	}
	return opts, core.Options{
		Rank: opts.Rank, Threads: opts.Threads, CacheBytes: opts.CacheBytes, MaxPrivElems: opts.MaxPrivElems,
		SecondCSF: opts.Engine == "stef2",
	}, nil
}

// plans reports whether the engine name selects STeF ("", "stef" or
// "stef2"), the engines that plan.
func plans(engine string) bool { return engine == "" || engine == "stef" || engine == "stef2" }

// nonFinite returns an error naming the first NaN or ±Inf in vals, with
// its index and coord(index), or one naming the overflow when every value
// is finite but the sum of their squares is not; nil when norm is finite.
// norm is ||X||_F, already computed from the same values: it is finite
// unless some value is NaN or ±Inf or the sum of squares overflows, so
// only then does the search run.
func nonFinite(norm float64, vals []float64, coord func(k int) []int32) error {
	if !math.IsNaN(norm) && !math.IsInf(norm, 0) {
		return nil
	}
	for k, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("stef: non-zero %d at zero-based coordinates %v has non-finite value %v", k, coord(k), v)
		}
	}
	return fmt.Errorf("stef: the sum of squares of the %d values overflows float64 (||X||_F = %v); scale the values down", len(vals), norm)
}

// leafCoord returns the coordinates of the tree's k-th leaf, in original
// mode order.
func leafCoord(tree *csf.Tree, k int) []int32 {
	c := make([]int32, tree.Order())
	tree.WalkLeaves(func(path []int64, leaf int) {
		if leaf == k {
			for l, n := range path {
				c[tree.PermLevel(l)] = tree.FidLevel(l)[n]
			}
		}
	})
	return c
}

// OpenArena opens a CSF arena file written by SaveArena (or csf.WriteArena)
// — on linux a zero-copy, O(rank)-latency mmap of the level arrays. Close
// the returned tree when done; see csf.OpenArena.
//
// life: return owned
func OpenArena(path string) (*csf.Tree, error) { return csf.OpenArena(path) }

// SaveArena packs the tensor into a CSF arena file: the CSF is built in
// the length-sorted heuristic order (the STeF default layout) and written
// crash-safely. The one-time build cost here is what OpenArena avoids on
// every subsequent run.
func SaveArena(t *tensor.Tensor, path string) error {
	return csf.Build(t, nil).WriteArena(path)
}

// Engine returns the compiled MTTKRP engine.
func (c *Compiled) Engine() cpd.Engine { return c.solver.Engine() }

// Plan returns STeF's planning diagnostics — the chosen layout and
// memoization set, the full configuration search trace (AllConfigs), the
// Table II byte accounting and preprocessing times. It is nil for engines
// other than "stef" and "stef2", which do not plan.
func (c *Compiled) Plan() *core.Plan { return c.plan }

// Decompose runs one CPD-ALS solve with the compiled plan, seeded by
// Options.Seed.
func (c *Compiled) Decompose() (*Result, error) { return c.DecomposeSeed(c.opts.Seed) }

// DecomposeSeed runs one CPD-ALS solve from the random initialisation of
// the given seed. It is safe to call from many goroutines at once: the plan
// is shared read-only and each call checks a workspace out of the pool.
func (c *Compiled) DecomposeSeed(seed int64) (*Result, error) {
	res, err := c.solver.Run(c.dims, c.normX, cpd.Options{
		Rank: c.opts.Rank, MaxIters: c.opts.MaxIters, Tol: c.opts.Tol, Seed: seed, Threads: c.opts.Threads,
	})
	if err != nil {
		return nil, err
	}
	c.unpermute(res)
	return res, nil
}

// DecomposeBest runs `restarts` solves with seeds Seed, Seed+1, ... — they
// share the one compiled plan — and returns the result with the best final
// fit. Each solve runs on Threads threads, so max(1, GOMAXPROCS/Threads)
// workers take the seeds in order, one solve each at a time; running every
// restart at once would hold every restart's buffers for no gain in speed.
// The first error in seed order is returned, and ties (and the pick among
// equal fits) are resolved deterministically in seed order.
func (c *Compiled) DecomposeBest(restarts int) (*Result, error) {
	if restarts < 1 {
		restarts = 1
	}
	results := make([]*Result, restarts)
	errs := make([]error, restarts)
	workers := min(restarts, max(1, runtime.GOMAXPROCS(0)/c.opts.Threads))
	var next atomic.Int64
	par.Do(workers, func(int) {
		for i := int(next.Add(1)) - 1; i < restarts; i = int(next.Add(1)) - 1 {
			results[i], errs[i] = c.DecomposeSeed(c.opts.Seed + int64(i))
		}
	})
	var best *Result
	for i, res := range results {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if best == nil || res.FinalFit() > best.FinalFit() {
			best = res
		}
	}
	return best, nil
}

// unpermute maps factor rows back to the original index space when the
// tensor was reordered: relabeled row perms[m][i] corresponds to original
// index i.
func (c *Compiled) unpermute(res *Result) {
	if c.perms == nil {
		return
	}
	for m, f := range res.Factors {
		orig := tensor.NewMatrix(f.Rows, f.Cols)
		for i := 0; i < f.Rows; i++ {
			copy(orig.Row(i), f.Row(int(c.perms[m][i])))
		}
		res.Factors[m] = orig
	}
}

// Decompose factorises the sparse tensor with CPD-ALS using the selected
// engine and returns the factor matrices, component weights and fit trace.
func Decompose(t *tensor.Tensor, opts Options) (*Result, error) {
	c, err := Compile(t, opts)
	if err != nil {
		return nil, err
	}
	return c.Decompose()
}

// DecomposeBest compiles once, then runs `restarts` solves with different
// random initialisations (seeds opts.Seed, opts.Seed+1, ...) and
// returns the result with the best final fit. CPD-ALS converges to local
// optima, so a handful of restarts is the standard way to stabilise the
// fit; on exactly low-rank data one restart usually suffices. The
// preprocessing (reordering, CSF build, model search) is shared across all
// restarts.
func DecomposeBest(t *tensor.Tensor, opts Options, restarts int) (*Result, error) {
	c, err := Compile(t, opts)
	if err != nil {
		return nil, err
	}
	return c.DecomposeBest(restarts)
}

// NewEngine constructs the named MTTKRP engine for the tensor. The empty
// name selects STeF. The engine works in the caller's index space, so
// Options.Reorder must be empty; reorder through Compile instead. A NaN or
// ±Inf value is an error, as in Compile.
func NewEngine(t *tensor.Tensor, opts Options) (cpd.Engine, error) {
	opts, co, err := normalize(opts)
	if err != nil {
		return nil, err
	}
	if opts.Reorder != "" {
		return nil, fmt.Errorf("stef: NewEngine works in the caller's index space; reordering %q needs Compile", opts.Reorder)
	}
	if err := nonFinite(t.NormFrobenius(), t.Vals, t.Coord); err != nil {
		return nil, err
	}
	eng, _, err := buildEngine(t, opts, co)
	return eng, err
}

// buildEngine constructs the named engine plus, for stef/stef2, its plan,
// from normalized options.
func buildEngine(t *tensor.Tensor, opts Options, co core.Options) (cpd.Engine, *core.Plan, error) {
	if plans(opts.Engine) {
		eng, plan, err := core.NewEngineFor(t, co)
		return eng, plan, err
	}
	eng, err := baselineEngines[opts.Engine](t, opts)
	return eng, nil, err
}

// baselineEngines constructs the comparison engines of the paper's
// evaluation by Options.Engine name, from normalized options.
var baselineEngines = map[string]func(t *tensor.Tensor, o Options) (cpd.Engine, error){
	"splatt-1":   func(t *tensor.Tensor, o Options) (cpd.Engine, error) { return splatt(t, o, 1), nil },
	"splatt-2":   func(t *tensor.Tensor, o Options) (cpd.Engine, error) { return splatt(t, o, 2), nil },
	"splatt-all": func(t *tensor.Tensor, o Options) (cpd.Engine, error) { return splatt(t, o, -1), nil },
	"adatm": func(t *tensor.Tensor, o Options) (cpd.Engine, error) {
		return baselines.NewAdaTM(t, baselines.AdaTMOptions{Threads: o.Threads, Rank: o.Rank, MaxPrivElems: o.MaxPrivElems}), nil
	},
	"alto": func(t *tensor.Tensor, o Options) (cpd.Engine, error) {
		return baselines.NewALTO(t, baselines.ALTOOptions{Threads: o.Threads, Rank: o.Rank, MaxPrivElems: o.MaxPrivElems})
	},
	"taco": func(t *tensor.Tensor, o Options) (cpd.Engine, error) {
		return baselines.NewTACO(t, baselines.TACOOptions{Threads: o.Threads, Rank: o.Rank}), nil
	},
	"hicoo": func(t *tensor.Tensor, o Options) (cpd.Engine, error) {
		return baselines.NewHiCOO(t, baselines.HiCOOOptions{Threads: o.Threads, Rank: o.Rank, MaxPrivElems: o.MaxPrivElems})
	},
	"dtree": func(t *tensor.Tensor, o Options) (cpd.Engine, error) {
		return dtree.NewEngine(t, dtree.Options{Rank: o.Rank, Threads: o.Threads})
	},
	"naive": func(t *tensor.Tensor, _ Options) (cpd.Engine, error) { return cpd.NaiveEngine(t), nil },
}

// splatt builds the SPLATT baseline with the given CSF copy count.
func splatt(t *tensor.Tensor, o Options, copies int) cpd.Engine {
	return baselines.NewSplatt(t, baselines.SplattOptions{Copies: copies, Threads: o.Threads, Rank: o.Rank, MaxPrivElems: o.MaxPrivElems})
}

// Plan exposes STeF's planning decisions (chosen layout, memoization set,
// modeled cost, Table II byte accounting) without running a decomposition.
// It returns exactly Compile(t, opts).Plan(), reordering included, and
// rejects what Compile rejects. Engines other than "stef" and "stef2" do
// not plan and are an error.
func Plan(t *tensor.Tensor, opts Options) (*core.Plan, error) {
	if baselineEngines[opts.Engine] != nil {
		return nil, fmt.Errorf("stef: engine %q does not plan; use engine \"stef\" or \"stef2\"", opts.Engine)
	}
	c, err := Compile(t, opts)
	if err != nil {
		return nil, err
	}
	return c.Plan(), nil
}

// LoadTensor reads a FROSTT .tns file.
func LoadTensor(path string) (*tensor.Tensor, error) {
	return frostt.ReadFile(path, nil)
}

// Benchmark generates one of the named synthetic benchmark tensors
// reproducing Table I's suite (see stef/internal/tensor.ProfileNames).
func Benchmark(name string) (*tensor.Tensor, error) {
	p, err := tensor.ProfileByName(name)
	if err != nil {
		return nil, err
	}
	return p.Generate(), nil
}
