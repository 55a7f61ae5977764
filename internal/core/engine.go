package core

import (
	"fmt"

	"stef/internal/cpd"
	"stef/internal/kernels"
	"stef/internal/tensor"
)

// Engine executes a Plan. It is immutable after construction — the plan's
// CSF trees, partitions and memo configuration are shared, read-only —
// which makes one engine safe to drive from many goroutines as long as
// each solve brings its own Workspace.
type Engine struct {
	plan  *Plan
	name  string
	order []int
}

// Workspace holds the mutable per-solve state of a STeF engine: the
// memoized partials of both CSF trees, the non-root output buffers, the
// releveled factor slices and the per-thread kernel scratch.
type Workspace struct {
	partials  *kernels.Partials
	partials2 *kernels.Partials // non-nil iff the plan has a second tree
	bufs      []*kernels.OutBuf
	lf        []*tensor.Matrix
	lf2       []*tensor.Matrix
	scratch   *kernels.Scratch
}

// Reset implements cpd.Workspace. It is a no-op by design: the ALS update
// order matches the CSF level order, so every solve's first Compute call
// (pos 0) rewrites the memoized partials before any later mode reads them,
// and output buffers are Reset inside Compute. Nothing survives from a
// previous solve that a fresh solve could observe.
func (w *Workspace) Reset() {}

// Name identifies the engine ("stef", "stef2", plus ablation suffixes).
func (e *Engine) Name() string { return e.name }

// UpdateOrder is the CSF level order, which keeps memoized partial results
// valid across the iteration (P^(l) depends only on deeper levels'
// factors).
func (e *Engine) UpdateOrder() []int { return e.order }

// Plan returns the immutable plan the engine executes, with its Table II
// accounting, configuration search trace and preprocessing times.
func (e *Engine) Plan() *Plan { return e.plan }

// NewWorkspace allocates the mutable buffers one concurrent solve needs.
func (e *Engine) NewWorkspace() cpd.Workspace {
	plan := e.plan
	tree := plan.Tree
	d := tree.Order()
	r := plan.Opts.Rank
	t := plan.Part.T

	w := &Workspace{
		partials: kernels.NewPartials(tree, r, plan.Config.Save),
		bufs:     make([]*kernels.OutBuf, d),
		lf:       make([]*tensor.Matrix, d),
		scratch:  kernels.NewScratch(d, r, t),
	}
	for u, ap := range plan.Accum {
		if ap != nil {
			w.bufs[u] = kernels.NewOutBufPlanned(ap)
		}
	}
	if plan.Tree2 != nil {
		w.partials2 = kernels.NoPartials(d)
		w.lf2 = make([]*tensor.Matrix, d)
	}
	return w
}

// Compute implements cpd.Engine, writing only into ws and out.
func (e *Engine) Compute(ws cpd.Workspace, pos int, factors []*tensor.Matrix, out *tensor.Matrix) {
	w, ok := ws.(*Workspace)
	if !ok {
		panic(fmt.Sprintf("core: Compute got workspace type %T, want one from Engine.NewWorkspace", ws))
	}
	plan := e.plan
	tree := plan.Tree
	d := tree.Order()
	kernels.LevelFactorsInto(w.lf, factors, tree.Perm())
	switch {
	case pos == 0:
		kernels.RootMTTKRPWith(tree, w.lf, out, w.partials, plan.Part, w.scratch)
	case pos == d-1 && plan.Tree2 != nil:
		// STeF2: the base leaf mode runs as the root of the auxiliary
		// CSF, avoiding the scatter-heavy leaf-mode MTTV kernel. The
		// scratch is shared with the base tree: both trees have order d
		// and boundary rows are dead once a root call returns.
		kernels.LevelFactorsInto(w.lf2, factors, plan.Tree2.Perm())
		kernels.RootMTTKRPWith(plan.Tree2, w.lf2, out, w.partials2, plan.Part2, w.scratch)
	default:
		buf := w.bufs[pos]
		buf.Reset()
		kernels.ModeMTTKRPWith(tree, w.lf, pos, w.partials, buf, plan.Part, w.scratch)
		buf.Reduce(out)
	}
}

// NewEngine builds a CPD engine executing the plan.
func NewEngine(plan *Plan) *Engine {
	name := "stef"
	if plan.Tree2 != nil {
		name = "stef2"
	}
	if plan.Opts.SliceSched {
		name += "-slicesched"
	}
	return &Engine{
		plan:  plan,
		name:  name,
		order: append([]int(nil), plan.Tree.Perm()...),
	}
}

// NewEngineFor is a convenience wrapper: plan and build in one call.
func NewEngineFor(t *tensor.Tensor, opts Options) (*Engine, *Plan, error) {
	plan, err := NewPlan(t, opts)
	if err != nil {
		return nil, nil, err
	}
	return NewEngine(plan), plan, nil
}
