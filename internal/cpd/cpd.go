// Package cpd implements the CPD-ALS algorithm (Algorithm 2 of the paper)
// on top of a pluggable MTTKRP engine. STeF, STeF2 and every baseline
// implement the Engine interface; the driver supplies the dense parts of
// the iteration: V via Hadamard products of Gram matrices, the SPD solve,
// column normalisation, and fit-based convergence.
//
// Execution is split into three layers. An Engine is immutable once
// constructed — CSF trees, partitions, memo configuration — and safe to
// share across goroutines. All mutable per-solve state (memo partials,
// output buffers, per-thread scratch) lives in a Workspace the engine
// manufactures via NewWorkspace and receives explicitly on every Compute
// call. A Solver pairs an engine with a sync.Pool of workspaces so that
// repeated or concurrent solves reuse buffers instead of reallocating them.
package cpd

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"stef/internal/dense"
	"stef/internal/kernels"
	"stef/internal/tensor"
)

// A Workspace holds the mutable per-solve state of one Engine: memo
// partials, privatised output buffers, per-thread scratch vectors. A
// workspace may be reused across solves (via Solver's pool) but must never
// be used by two Compute sequences concurrently; concurrency is achieved
// by acquiring one workspace per goroutine while sharing the engine.
type Workspace interface {
	// Reset prepares the workspace for a fresh solve sequence. Engines
	// whose buffers are unconditionally overwritten at the start of each
	// iteration may make this a no-op; engines that cache results across
	// Compute calls (e.g. dimension trees) must invalidate them here.
	Reset()
}

// Engine produces the sequence of MTTKRP results for one CPD iteration.
// Implementations must be immutable after construction: Compute may write
// only into the supplied workspace and output matrix, never into engine
// state, so one engine can serve concurrent solves that each bring their
// own workspace.
type Engine interface {
	// Name identifies the engine in benchmark output.
	Name() string
	// UpdateOrder lists original mode indices in update order. The driver
	// updates factor matrices in this sequence; engines that memoize
	// partial results need the update order to match their CSF level order
	// so saved partials remain valid (a P^(l) only involves factors of
	// deeper levels, which have not yet been updated when level l is
	// processed). The returned slice must not be mutated by callers.
	UpdateOrder() []int
	// NewWorkspace allocates a workspace sized for this engine. The
	// returned workspace is ready for use without a prior Reset.
	NewWorkspace() Workspace
	// Compute fills out with the MTTKRP for UpdateOrder()[pos], given the
	// current factor matrices (indexed by original mode). out has shape
	// Dims[UpdateOrder()[pos]] × R and may contain stale data on entry.
	// out may alias factors[UpdateOrder()[pos]] — RunWith passes that
	// factor, so the MTTKRP lands in the matrix the update solves in place
	// — so Compute must not read that factor. ws must have been produced
	// by this engine's NewWorkspace.
	Compute(ws Workspace, pos int, factors []*tensor.Matrix, out *tensor.Matrix)
}

// Options configures a CPD run.
type Options struct {
	// Rank is the number of decomposition components R.
	Rank int
	// MaxIters bounds the number of ALS iterations (default 50).
	MaxIters int
	// Tol stops the iteration when the fit improves by less than Tol
	// (default 1e-5). Set negative to always run MaxIters.
	Tol float64
	// Seed seeds the random initial factors.
	Seed int64
	// NonNegative projects every factor update onto the non-negative
	// orthant (projected ALS), the simple multiplicative-free variant of
	// non-negative CPD. Useful for count data where negative loadings
	// are uninterpretable.
	NonNegative bool
	// Regularization adds λ_reg·I to every normal-equation matrix V
	// (ridge/Tikhonov), stabilising ill-conditioned updates at the cost
	// of slightly biased factors.
	Regularization float64
	// TimeBudget stops the iteration after the first iteration that
	// finishes past this wall-clock budget (0 = unlimited).
	TimeBudget time.Duration
	// InitialFactors warm-starts the iteration from the given factor
	// matrices (cloned, indexed by mode) instead of random ones —
	// e.g. to resume a checkpointed decomposition (see LoadKruskal).
	InitialFactors []*tensor.Matrix
	// Threads is the worker count of the dense factor update (default 1);
	// the engine's MTTKRP runs on the threads it was built with. A
	// one-thread solve is bit-identical for every engine; more threads
	// change only the order of the cross-thread reductions.
	Threads int
}

func (o *Options) fill() {
	if o.MaxIters == 0 {
		o.MaxIters = 50
	}
	if o.Tol == 0 {
		o.Tol = 1e-5
	}
	if o.Rank <= 0 {
		o.Rank = 16
	}
	if o.Threads < 1 {
		o.Threads = 1
	}
}

// Result holds a completed decomposition.
type Result struct {
	// Factors are the final factor matrices with unit-normalised
	// columns, indexed by original mode.
	Factors []*tensor.Matrix
	// Lambda holds the component weights absorbed during normalisation.
	Lambda []float64
	// Fits records the model fit (1 - relative residual) after each
	// iteration.
	Fits []float64
	// Iters is the number of completed iterations.
	Iters int
	// Converged reports whether the fit tolerance was met before
	// MaxIters.
	Converged bool
	// InitTime is the solve's start-up: the wall time from entering
	// RunWith to its first Engine.Compute, spent on the initial factors,
	// their Grams and the dense update's R×R buffers. There are no MTTKRP
	// buffers: each MTTKRP is written into the factor it updates.
	InitTime time.Duration
	// MTTKRPTime accumulates wall time spent inside Engine.Compute.
	MTTKRPTime time.Duration
	// ModeTime accumulates Engine.Compute wall time per original mode,
	// across all iterations — the per-mode breakdown that exposes which
	// MTTKRP dominates (e.g. the leaf-mode MTTV that motivates STeF2).
	ModeTime []time.Duration
}

// NonFiniteError reports a solve that went non-finite: a factor column
// (seen through its Gram diagonal) after one mode's update, or the fit
// after an iteration. Iter is zero-based; Mode is the original index of
// the mode whose update came last, which for Fit is the last mode in
// update order.
type NonFiniteError struct {
	Engine     string
	Iter, Mode int
	// Fit is set when the factors stayed finite but the fit did not.
	Fit bool
}

func (e *NonFiniteError) Error() string {
	what := "the updated factor has a non-finite column"
	if e.Fit {
		what = "the fit is not finite"
	}
	return fmt.Sprintf("cpd: engine %q iteration %d mode %d: %s", e.Engine, e.Iter, e.Mode, what)
}

// FinalFit returns the fit after the last iteration (NaN if none ran).
func (r *Result) FinalFit() float64 {
	if len(r.Fits) == 0 {
		return math.NaN()
	}
	return r.Fits[len(r.Fits)-1]
}

// Run executes CPD-ALS with the given engine using a freshly allocated
// workspace. dims are the tensor's mode lengths and normX its Frobenius
// norm (used for the fit). Callers that solve repeatedly should pool
// workspaces through a Solver instead.
func Run(dims []int, normX float64, eng Engine, opts Options) (*Result, error) {
	return RunWith(dims, normX, eng, eng.NewWorkspace(), opts)
}

// RunWith executes CPD-ALS with the given engine and workspace. The
// workspace is Reset before use and remains owned by the caller, which
// makes repeated solves on a pooled workspace allocation-free in steady
// state: every buffer the iteration needs is either part of the workspace
// or hoisted out of the ALS loop below.
func RunWith(dims []int, normX float64, eng Engine, ws Workspace, opts Options) (*Result, error) {
	begin := time.Now()
	if opts.MaxIters < 0 {
		return nil, fmt.Errorf("cpd: MaxIters %d is negative", opts.MaxIters)
	}
	opts.fill()
	d := len(dims)
	order := eng.UpdateOrder()
	if err := tensor.CheckPerm(order, d); err != nil {
		return nil, fmt.Errorf("cpd: engine %q: %w", eng.Name(), err)
	}
	r := opts.Rank
	var factors, grams []*tensor.Matrix
	if opts.InitialFactors != nil {
		if len(opts.InitialFactors) != d {
			return nil, fmt.Errorf("cpd: %d initial factors for order-%d tensor", len(opts.InitialFactors), d)
		}
		factors = make([]*tensor.Matrix, d)
		grams = make([]*tensor.Matrix, d)
		for m, f := range opts.InitialFactors {
			if f.Rows != dims[m] || f.Cols != r {
				//lint:allow hotpath-alloc one-time input validation, cold error path
				return nil, fmt.Errorf("cpd: initial factor %d has shape %dx%d, want %dx%d", m, f.Rows, f.Cols, dims[m], r)
			}
			factors[m] = f.Clone()
			grams[m] = dense.Gram(factors[m], nil)
		}
	} else {
		factors, grams = randomStart(dims, r, opts.Seed, opts.Threads)
	}
	lambda := make([]float64, r)
	res := &Result{Factors: factors, Lambda: lambda, ModeTime: make([]time.Duration, d)}
	res.Fits = make([]float64, 0, opts.MaxIters)
	prevFit := math.Inf(-1)
	deadline := time.Time{}
	if opts.TimeBudget > 0 {
		deadline = time.Now().Add(opts.TimeBudget)
	}

	// Everything the per-mode update needs is allocated once here; the
	// iteration below reuses these buffers so a pooled workspace's solve
	// does no per-iteration heap allocation.
	v := tensor.NewMatrix(r, r)
	fitG := tensor.NewMatrix(r, r)
	upd := dense.NewUpdater(r, opts.Threads)
	var chol dense.Cholesky
	ws.Reset()
	res.InitTime = time.Since(begin)

	for it := 0; it < opts.MaxIters; it++ {
		var inner float64
		for pos := 0; pos < d; pos++ {
			m := order[pos]
			start := time.Now()
			// The MTTKRP goes straight into the factor it updates: no
			// MTTKRP reads its own mode's factor.
			eng.Compute(ws, pos, factors, factors[m])
			el := time.Since(start)
			res.MTTKRPTime += el
			res.ModeTime[m] += el

			// V = Hadamard product of the other modes' Grams.
			dense.OnesInto(v)
			for mm := 0; mm < d; mm++ {
				if mm != m {
					dense.HadamardInto(v, grams[mm])
				}
			}
			if opts.Regularization > 0 {
				for p := 0; p < r; p++ {
					v.Set(p, p, v.At(p, p)+opts.Regularization)
				}
			}
			if err := chol.Refactor(v); err != nil {
				//lint:allow hotpath-alloc cold error path, aborts the iteration
				return nil, fmt.Errorf("cpd: engine %q iteration %d mode %d: %w", eng.Name(), it, m, err)
			}
			// The fused update solves, clamps and normalises the factor in
			// place, leaves its column scaling in lambda and its new Gram
			// in grams[m], and returns <X, M> for this mode's MTTKRP; the
			// fit takes the last mode's.
			inner = upd.Update(&chol, factors[m], dense.UpdateOptions{
				NonNegative: opts.NonNegative,
				TwoNorm:     it == 0,
			}, lambda, grams[m])
			// Gram diagonal p is Σ a[i][p]², finite exactly when column p
			// is (short of overflow).
			for p := 0; p < r; p++ {
				if g := grams[m].Data[p*r+p]; math.IsNaN(g) || math.IsInf(g, 0) {
					return nil, &NonFiniteError{Engine: eng.Name(), Iter: it, Mode: m}
				}
			}
		}

		fit := computeFit(normX, grams, lambda, inner, fitG)
		if math.IsNaN(fit) || math.IsInf(fit, 0) {
			return nil, &NonFiniteError{Engine: eng.Name(), Iter: it, Mode: order[d-1], Fit: true}
		}
		//lint:allow hotpath-alloc append stays within the MaxIters capacity reserved above
		res.Fits = append(res.Fits, fit)
		res.Iters = it + 1
		if math.Abs(fit-prevFit) < opts.Tol {
			res.Converged = true
			break
		}
		prevFit = fit
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
	}
	return res, nil
}

// startBlock is the number of values randomStart fills between two
// publications of its progress: 64 KiB of factor rows.
const startBlock = 8192

// randomStart returns one random rank-r factor per mode of dims, with the
// values of tensor.RandomFactors(dims, r, seed), and their Grams, equal
// to dense.Gram's. It fills each factor a block of rows at a time and
// folds each block into its mode's Gram as soon as it is filled. With two
// or more threads the folding runs on a second goroutine that follows the
// filler through the count of rows filled so far; with one, both run in
// turn on the caller's thread.
func randomStart(dims []int, r int, seed int64, threads int) (factors, grams []*tensor.Matrix) {
	factors = make([]*tensor.Matrix, len(dims))
	grams = make([]*tensor.Matrix, len(dims))
	for m, n := range dims {
		factors[m] = tensor.NewMatrix(n, r)
		grams[m] = tensor.NewMatrix(r, r)
	}
	// A multiple of four rows, as dense.GramStream's Go path needs.
	block := max(4, startBlock/r/4*4)
	src := tensor.NewUniform(seed)
	var gs dense.GramStream
	if threads < 2 {
		for m, f := range factors {
			gs.Start(grams[m])
			for lo := 0; lo < f.Rows; lo += block {
				rows := f.Data[lo*r : min(lo+block, f.Rows)*r]
				src.Fill(rows)
				gs.Add(rows)
			}
			gs.Finish()
		}
		return factors, grams
	}
	var filled atomic.Int64 // rows filled so far, over the factors in mode order
	done := make(chan struct{})
	go func() {
		defer close(done)
		base := 0
		for m, f := range factors {
			gs.Start(grams[m])
			for lo := 0; lo < f.Rows; lo += block {
				hi := min(lo+block, f.Rows)
				for filled.Load() < int64(base+hi) {
					runtime.Gosched()
				}
				gs.Add(f.Data[lo*r : hi*r])
			}
			gs.Finish()
			base += f.Rows
		}
	}()
	base := 0
	for _, f := range factors {
		for lo := 0; lo < f.Rows; lo += block {
			hi := min(lo+block, f.Rows)
			src.Fill(f.Data[lo*r : hi*r])
			filled.Store(int64(base + hi))
		}
		base += f.Rows
	}
	<-done
	return factors, grams
}

// computeFit evaluates 1 - ||X - model||_F / ||X||_F using the standard
// identity: ||X - M||² = ||X||² + ||M||² - 2<X, M>, where inner = <X, M>
// comes from the last mode's update (which takes it from the MTTKRP and
// the solved factor as it overwrites the one with the other) and ||M||²
// from the Gram matrices and lambda. g is an R×R scratch
// matrix overwritten here.
func computeFit(normX float64, grams []*tensor.Matrix, lambda []float64, inner float64, g *tensor.Matrix) float64 {
	r := len(lambda)
	// ||M||² = λᵀ (G_0 ⊙ G_1 ⊙ ... ⊙ G_{d-1}) λ
	dense.OnesInto(g)
	for _, gm := range grams {
		dense.HadamardInto(g, gm)
	}
	normM2 := 0.0
	for p := 0; p < r; p++ {
		row := g.Row(p)
		for q := 0; q < r; q++ {
			normM2 += lambda[p] * lambda[q] * row[q]
		}
	}
	resid2 := normX*normX + normM2 - 2*inner
	if resid2 < 0 {
		resid2 = 0
	}
	if normX == 0 {
		return 1
	}
	return 1 - math.Sqrt(resid2)/normX
}

// naiveEngine computes every MTTKRP straight from the COO tensor (no CSF,
// no memoization, no parallelism). Its workspace is empty: Reference
// allocates per call, which is fine for a ground-truth engine.
type naiveEngine struct {
	t     *tensor.Tensor
	order []int
}

// naiveWorkspace is the empty workspace of the naive engine.
type naiveWorkspace struct{}

// Reset is a no-op: the naive engine keeps no state between calls.
func (naiveWorkspace) Reset() {}

func (e *naiveEngine) Name() string { return "naive" }

func (e *naiveEngine) UpdateOrder() []int { return e.order }

func (e *naiveEngine) NewWorkspace() Workspace { return naiveWorkspace{} }

func (e *naiveEngine) Compute(_ Workspace, pos int, factors []*tensor.Matrix, out *tensor.Matrix) {
	ref := kernels.Reference(e.t, factors, pos)
	out.CopyFrom(ref)
}

// NaiveEngine returns a correctness-first engine that computes every MTTKRP
// straight from the COO tensor (no CSF, no memoization, no parallelism).
// It is the ground truth for engine equivalence tests.
func NaiveEngine(t *tensor.Tensor) Engine {
	d := t.Order()
	order := make([]int, d)
	for i := range order {
		order[i] = i
	}
	return &naiveEngine{t: t, order: order}
}
