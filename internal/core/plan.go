// Package core assembles the paper's contribution: STeF, the sparsity-aware
// memoized MTTKRP engine. The Planner builds the CSF, runs Algorithm 9 to
// obtain the swapped-layout fiber count, searches the configuration space
// with the data-movement model (Section IV), and selects memoization and
// layout; the Engine executes one CPD iteration's MTTKRP sequence with the
// load-balanced work distribution of Section III-A.
package core

import (
	"fmt"
	"slices"
	"time"

	"stef/internal/csf"
	"stef/internal/kernels"
	"stef/internal/model"
	"stef/internal/sched"
	"stef/internal/tensor"
)

// SaveRule selects how the memoization vector is chosen; Fig. 6's ablation
// compares the model choice against the two extremes.
type SaveRule int

const (
	// SaveModel uses the data-movement model's choice (STeF default).
	SaveModel SaveRule = iota
	// SaveAll memoizes every level 1..d-2.
	SaveAll
	// SaveNone memoizes nothing.
	SaveNone
)

// SwapRule selects how the last-two-mode layout is chosen.
type SwapRule int

const (
	// SwapModel uses the data-movement model's choice (STeF default).
	SwapModel SwapRule = iota
	// SwapNever keeps the length-sorted order.
	SwapNever
	// SwapAlways always swaps the last two modes.
	SwapAlways
	// SwapOpposite takes the opposite of the model's choice (the
	// Fig. 6 "switching mode order" ablation).
	SwapOpposite
)

// Options configures the planner and engine.
type Options struct {
	// Rank is the decomposition rank R.
	Rank int
	// Threads is the worker count (default 1).
	Threads int
	// CacheBytes parameterises the data-movement model (default
	// model.DefaultCacheBytes).
	CacheBytes int64
	// SaveRule and SwapRule override the model's decisions for
	// ablations.
	SaveRule SaveRule
	SwapRule SwapRule
	// SliceSched replaces the non-zero-balanced work distribution with
	// slice-granular partitioning (the Fig. 6 work-distribution
	// ablation).
	SliceSched bool
	// SecondCSF enables the STeF2 variant: a second CSF rooted at the
	// base CSF's leaf mode handles that mode's MTTKRP.
	SecondCSF bool
	// MaxPrivElems is the privatization cap of the accumulation rule
	// (kernels.Privatize): a non-root output is privatized when rows·R·T
	// fits it — thread 0 accumulates in the output, each other thread in a
	// private copy — and takes the hybrid strategy otherwise (default
	// kernels.DefaultPrivatizeMaxElems).
	MaxPrivElems int64
}

func (o Options) withDefaults() Options {
	if o.Threads < 1 {
		o.Threads = 1
	}
	if o.Rank <= 0 {
		o.Rank = 16
	}
	if o.CacheBytes <= 0 {
		o.CacheBytes = model.DefaultCacheBytes
	}
	if o.MaxPrivElems <= 0 {
		o.MaxPrivElems = kernels.DefaultPrivatizeMaxElems
	}
	return o
}

// Plan records every decision the planner made for a tensor, plus the
// byte-level accounting behind Table II.
type Plan struct {
	// Opts echoes the options the plan was built with (post-defaults).
	Opts Options
	// Tree is the CSF in the chosen layout.
	Tree *csf.Tree
	// Tree2 is the STeF2 auxiliary CSF (nil unless Opts.SecondCSF).
	Tree2 *csf.Tree
	// Part is the chosen work distribution over Tree.
	Part *sched.Partition
	// Part2 partitions Tree2 when present.
	Part2 *sched.Partition
	// Config is the chosen memoization/layout configuration with its
	// modeled cost.
	Config model.Config
	// AllConfigs lists every evaluated configuration (diagnostics).
	AllConfigs []model.Config
	// PreprocessTime is the time spent in the Algorithm 9 counting pass,
	// the model search and the row-write census of the accumulation plans
	// — the quantity of Figure 5.
	PreprocessTime time.Duration
	// BuildTime is the CSF construction time, including the derivation of
	// the swapped layout and STeF2's second tree (not part of Fig. 5,
	// which every engine pays).
	BuildTime time.Duration
	// MemoBytes, CSFBytes and FactorBytes give Table II's accounting.
	MemoBytes, CSFBytes, FactorBytes int64
	// Params is the Section IV model parameterisation of the chosen
	// layout, on which Config.Cost was priced (diagnostics, model-accuracy
	// checks).
	Params model.Params
	// Accum[u] is the accumulation plan for the level-u MTTKRP output.
	// Accum[0] is always nil (the root accumulates through boundary
	// replicas), as is Accum[d-1] under STeF2 (the auxiliary CSF handles
	// the leaf mode as a root).
	Accum []*kernels.AccumPlan
}

// Ratio returns Table II's ratio: memoized partial-result storage relative
// to the CSF structure plus factor matrices.
func (p *Plan) Ratio() float64 {
	den := p.CSFBytes + p.FactorBytes
	if den == 0 {
		return 0
	}
	return float64(p.MemoBytes) / float64(den)
}

// AccumBytes returns what one workspace allocates to accumulate the
// non-root outputs: the sum of the levels' AccumPlan.WorkspaceBytes.
func (p *Plan) AccumBytes() int64 {
	var b int64
	for _, ap := range p.Accum {
		if ap != nil {
			b += ap.WorkspaceBytes()
		}
	}
	return b
}

// NewPlan builds the CSF for t, runs the model search and fixes every
// execution decision.
func NewPlan(t *tensor.Tensor, opts Options) (*Plan, error) {
	opts = opts.withDefaults()
	if d := t.Order(); d < 3 {
		return nil, fmt.Errorf("core: order-%d tensor; STeF needs at least 3 modes", d)
	}
	start := time.Now()
	base := csf.Build(t, tensor.LengthSortedPerm(t.Dims))
	return plan(base, t, opts, time.Since(start)), nil
}

// NewPlanFromTree fixes every execution decision for a pre-built CSF tree
// — typically one opened zero-copy from an arena file (csf.OpenArena) —
// without the COO tensor. The tree keeps its layout (see plan), so
// SwapAlways and SwapOpposite are rejected, and SecondCSF because the
// auxiliary tree is built from the COO.
//
// The caller keeps ownership of the tree's backing: closing an arena while
// the returned plan is in use invalidates every kernel's view of it.
func NewPlanFromTree(tree *csf.Tree, opts Options) (*Plan, error) {
	opts = opts.withDefaults()
	if d := tree.Order(); d < 3 {
		return nil, fmt.Errorf("core: order-%d tree; STeF needs at least 3 modes", d)
	}
	if opts.SecondCSF {
		return nil, fmt.Errorf("core: SecondCSF needs the COO tensor to build the auxiliary tree; plan from the tensor instead")
	}
	if opts.SwapRule == SwapAlways || opts.SwapRule == SwapOpposite {
		return nil, fmt.Errorf("core: swap rules do not apply to a pre-built tree; it keeps the layout it was built in")
	}
	return plan(tree, nil, opts, 0), nil
}

// plan fixes every execution decision for base, a CSF of order >= 3,
// whose construction took buildTime. coo is the tensor base was built
// from, or nil for a pre-built tree.
//
// Only with the COO is the swapped layout searched: Algorithm 9 counts its
// level d-2 fibers and the model prices both layouts. A pre-built tree
// keeps the layout it was built in, because SwapLastTwo would copy an
// mmap'd tree's levels to the heap, which is the copy that opening an
// arena avoids. The swap rule then fixes the layout, and the memo set is
// the cheapest for that layout unless the save rule forces it; under
// SwapModel and SaveModel that is model.Search's pick.
//
// Algorithm 9, the model search and the write census of the accumulation
// plans are the Fig. 5 preprocessing; the swap derivation and STeF2's
// second tree count as build time.
func plan(base *csf.Tree, coo *tensor.Tensor, opts Options, buildTime time.Duration) *Plan {
	d := base.Order()
	p := &Plan{Opts: opts, BuildTime: buildTime}

	preStart := time.Now()
	baseParams := model.ParamsForCache(base.Dims(), base.FiberCounts(), opts.Rank, opts.CacheBytes)
	var swappedParams model.Params
	if coo != nil && opts.SwapRule != SwapNever {
		swappedParams = model.SwappedParams(baseParams, base.CountSwappedFibers(opts.Threads))
	}
	best, all := model.Search(baseParams, swappedParams)
	p.AllConfigs = all
	swap := best.Swap
	switch opts.SwapRule {
	case SwapNever:
		swap = false
	case SwapAlways:
		swap = true
	case SwapOpposite:
		swap = !best.Swap
	}
	p.Params = baseParams
	if swap {
		p.Params = swappedParams
	}
	var save []bool
	switch opts.SaveRule {
	case SaveAll:
		save = make([]bool, d)
		for l := 1; l <= d-2; l++ {
			save[l] = true
		}
	case SaveNone:
		save = make([]bool, d)
	default:
		save = bestSaveFor(p.Params)
	}
	p.Config = model.Config{Swap: swap, Save: save, Cost: p.Params.IterationCost(save)}
	p.PreprocessTime = time.Since(preStart)

	p.Tree = base
	if swap {
		start := time.Now()
		p.Tree = base.SwapLastTwo(opts.Threads)
		p.BuildTime += time.Since(start)
	}
	p.Part = partition(p.Tree, opts)
	if opts.SecondCSF {
		start := time.Now()
		p.Tree2 = csf.Build(coo, leafRootedPerm(p.Tree.Perm()))
		p.Part2 = partition(p.Tree2, opts)
		p.BuildTime += time.Since(start)
	}

	start := time.Now()
	p.buildAccum()
	p.PreprocessTime += time.Since(start)

	// Table II accounting.
	p.MemoBytes = p.Params.MemoBytes(save)
	p.CSFBytes = p.Tree.Bytes()
	if p.Tree2 != nil {
		p.CSFBytes += p.Tree2.Bytes()
	}
	for _, n := range base.Dims() {
		p.FactorBytes += int64(n) * int64(opts.Rank) * 8
	}
	return p
}

// partition distributes tree's work over the threads: non-zero-balanced
// (Alg. 3), or slice-granular under SliceSched.
func partition(tree *csf.Tree, opts Options) *sched.Partition {
	if opts.SliceSched {
		return sched.NewSlicePartitionNNZ(tree, opts.Threads).ToPartition(tree)
	}
	return sched.NewPartition(tree, opts.Threads)
}

// WithSave returns the plan with its memo set replaced by save: the same
// tree, partition and options, with that memo set's modeled cost, memo
// bytes and accumulation plans. The accumulation plans need a fresh
// census, because a mode's write spans depend on the level it reads from;
// overwriting Config.Save alone would leave plans whose single-writer
// proofs do not hold for the walks the kernels then take.
func (p *Plan) WithSave(save []bool) *Plan {
	d := p.Tree.Order()
	if len(save) != d || save[0] || save[d-1] {
		panic(fmt.Sprintf("core: WithSave(%v) on an order-%d plan: only levels 1..d-2 can be memoized", save, d))
	}
	q := *p
	save = slices.Clone(save)
	q.Config = model.Config{Swap: p.Config.Swap, Save: save, Cost: p.Params.IterationCost(save)}
	q.MemoBytes = q.Params.MemoBytes(save)
	q.buildAccum()
	return &q
}

// buildAccum fixes the accumulation plan of every non-root mode. The write
// census walks the same clamped spans over the final tree and partition as
// the kernels, under the plan's memo set, so its single-writer proofs hold
// for exactly this execution; kernels.Privatize picks each level's
// strategy. Under STeF2 the leaf mode runs as the auxiliary tree's root and
// has no plan.
func (p *Plan) buildAccum() {
	opts := p.Opts
	d := p.Tree.Order()
	p.Accum = make([]*kernels.AccumPlan, d)
	hotBudget := (opts.CacheBytes / 8) / 2
	for u := 1; u < d; u++ {
		if u == d-1 && p.Tree2 != nil {
			continue
		}
		rw := kernels.CountRowWrites(p.Tree, p.Part, u, model.SourceLevel(p.Config.Save, u))
		strat := kernels.AccumHybrid
		if kernels.Privatize(p.Tree.Dim(u), opts.Rank, opts.Threads, opts.MaxPrivElems) {
			strat = kernels.AccumPriv
		}
		p.Accum[u] = kernels.PlanAccum(rw, opts.Rank, opts.Threads, strat, hotBudget)
	}
}

// bestSaveFor returns the cheapest memoization vector for a fixed layout.
func bestSaveFor(params model.Params) []bool {
	var best []bool
	var bestCost int64
	for i, save := range model.EnumerateSaves(len(params.Dims)) {
		c := params.IterationCost(save).Total()
		if i == 0 || c < bestCost {
			best, bestCost = save, c
		}
	}
	return best
}

// leafRootedPerm builds STeF2's second layout: the base leaf mode becomes
// the root; the remaining modes keep their base relative order.
func leafRootedPerm(basePerm []int) []int {
	d := len(basePerm)
	perm := make([]int, 0, d)
	perm = append(perm, basePerm[d-1])
	perm = append(perm, basePerm[:d-1]...)
	return perm
}
