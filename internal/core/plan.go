// Package core assembles the paper's contribution: STeF, the sparsity-aware
// memoized MTTKRP engine. The Planner builds the CSF, runs Algorithm 9 to
// obtain the swapped-layout fiber count, searches the configuration space
// with the data-movement model (Section IV), and selects memoization and
// layout; the Engine executes one CPD iteration's MTTKRP sequence with the
// load-balanced work distribution of Section III-A.
package core

import (
	"fmt"
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
	// (model.Params.Privatized): a non-root output gets T private copies
	// when rows·R·T fits it, the hybrid strategy otherwise (default
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
	// the row-write census and the model search — the quantity of
	// Figure 5.
	PreprocessTime time.Duration
	// BuildTime is the CSF construction time, including the derivation of
	// the swapped layout and STeF2's second tree (not part of Fig. 5,
	// which every engine pays).
	BuildTime time.Duration
	// MemoBytes, CSFBytes and FactorBytes give Table II's accounting.
	MemoBytes, CSFBytes, FactorBytes int64
	// Params is the model parameterisation of the chosen layout with
	// row-write stats attached, so AccumCost is callable on it
	// (diagnostics, model-accuracy checks).
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

// NewPlan builds the CSF for t, runs the model search and fixes every
// execution decision.
func NewPlan(t *tensor.Tensor, opts Options) (*Plan, error) {
	opts = opts.withDefaults()
	d := t.Order()
	if d < 3 {
		return nil, fmt.Errorf("core: order-%d tensor; STeF needs at least 3 modes", d)
	}
	p := &Plan{Opts: opts}

	buildStart := time.Now()
	basePerm := tensor.LengthSortedPerm(t.Dims)
	baseTree := csf.Build(t, basePerm)
	p.BuildTime = time.Since(buildStart)

	// Preprocessing (Fig. 5): Algorithm 9, the row-write census for the
	// accumulation-cost term, and the exhaustive model search.
	preStart := time.Now()
	baseParams := model.ParamsForCache(baseTree.Dims(), baseTree.FiberCounts(), opts.Rank, opts.CacheBytes)
	baseParams.AttachAccum(levelRowStats(baseTree), opts.Threads, opts.MaxPrivElems)
	var swappedParams model.Params
	if opts.SwapRule != SwapNever {
		// One Algorithm 9 scan yields both the swapped layout's row-write
		// histograms and, as the d2 histogram's total, its fiber count.
		d2, leaf := baseTree.SwappedRowCounts(opts.Threads)
		var swappedFibers int64
		for _, c := range d2 {
			swappedFibers += c
		}
		swappedParams = model.SwappedParams(baseParams, swappedFibers)
		swappedParams.AttachAccum(swappedRowStats(baseParams.Accum, d2, leaf), opts.Threads, opts.MaxPrivElems)
	}
	best, all := model.Search(baseParams, swappedParams)
	p.AllConfigs = all
	p.Config = best
	p.PreprocessTime = time.Since(preStart)

	// Apply the swap rule.
	swap := best.Swap
	switch opts.SwapRule {
	case SwapNever:
		swap = false
	case SwapAlways:
		swap = true
	case SwapOpposite:
		swap = !best.Swap
	}
	chosenParams := baseParams
	if swap != best.Swap || opts.SaveRule != SaveModel {
		// Re-derive the save vector for the layout actually used.
		if swap {
			chosenParams = swappedParams
		}
		bestForLayout := bestSaveFor(chosenParams)
		p.Config = model.Config{Swap: swap, Save: bestForLayout, Cost: chosenParams.IterationCost(bestForLayout)}
	} else if swap {
		chosenParams = swappedParams
	}

	// Apply the save rule.
	switch opts.SaveRule {
	case SaveAll:
		save := make([]bool, d)
		for l := 1; l <= d-2; l++ {
			save[l] = true
		}
		p.Config.Save = save
		p.Config.Cost = chosenParams.IterationCost(save)
	case SaveNone:
		p.Config.Save = make([]bool, d)
		p.Config.Cost = chosenParams.IterationCost(p.Config.Save)
	}

	// Materialise the chosen layout: the swapped tree is derived from the
	// base tree, not rebuilt from the COO.
	if swap {
		start := time.Now()
		baseTree = baseTree.SwapLastTwo(opts.Threads)
		p.BuildTime += time.Since(start)
	}
	p.Tree = baseTree
	if opts.SliceSched {
		p.Part = sched.NewSlicePartitionNNZ(p.Tree, opts.Threads).ToPartition(p.Tree)
	} else {
		p.Part = sched.NewPartition(p.Tree, opts.Threads)
	}

	if opts.SecondCSF {
		start := time.Now()
		perm2 := leafRootedPerm(p.Tree.Perm())
		p.Tree2 = csf.Build(t, perm2)
		if opts.SliceSched {
			p.Part2 = sched.NewSlicePartitionNNZ(p.Tree2, opts.Threads).ToPartition(p.Tree2)
		} else {
			p.Part2 = sched.NewPartition(p.Tree2, opts.Threads)
		}
		p.BuildTime += time.Since(start)
	}

	// Resolve the accumulation plans for the final layout and partition:
	// the write census walks the same clamped spans as the kernels, so its
	// single-writer proofs hold for exactly this execution. Part of the
	// Fig. 5 preprocessing cost.
	accumStart := time.Now()
	p.buildAccum()
	p.PreprocessTime += time.Since(accumStart)

	// Table II accounting.
	p.MemoBytes = p.Params.MemoBytes(p.Config.Save)
	p.CSFBytes = p.Tree.Bytes()
	if p.Tree2 != nil {
		p.CSFBytes += p.Tree2.Bytes()
	}
	for _, n := range t.Dims {
		p.FactorBytes += int64(n) * int64(opts.Rank) * 8
	}
	return p, nil
}

// NewPlanFromTree fixes every execution decision for a pre-built CSF tree
// — typically one opened zero-copy from an arena file (csf.OpenArena) —
// without the COO tensor. The tree's layout is taken as-is: no reorder, no
// CSF build, and no layout swap (a pre-built tree is planned in the layout
// it was built in), so planning reduces to the memoization search, the
// partition, and the row-write census for the accumulation plans.
// SwapAlways/SwapOpposite are rejected for that reason, and SecondCSF
// because the auxiliary tree is built from the COO.
//
// The caller keeps ownership of the tree's backing: closing an arena while
// the returned plan is in use invalidates every kernel's view of it.
func NewPlanFromTree(tree *csf.Tree, opts Options) (*Plan, error) {
	opts = opts.withDefaults()
	d := tree.Order()
	if d < 3 {
		return nil, fmt.Errorf("core: order-%d tree; STeF needs at least 3 modes", d)
	}
	if opts.SecondCSF {
		return nil, fmt.Errorf("core: SecondCSF needs the COO tensor to build the auxiliary tree; plan from the tensor instead")
	}
	if opts.SwapRule == SwapAlways || opts.SwapRule == SwapOpposite {
		return nil, fmt.Errorf("core: swap rules do not apply to a pre-built tree; it keeps the layout it was built in")
	}
	p := &Plan{Opts: opts}

	// Memoization search over the fixed layout (the Fig. 5 preprocessing,
	// minus Algorithm 9 — with no swap on the table the swapped layout is
	// never costed).
	preStart := time.Now()
	params := model.ParamsForCache(tree.Dims(), tree.FiberCounts(), opts.Rank, opts.CacheBytes)
	params.AttachAccum(levelRowStats(tree), opts.Threads, opts.MaxPrivElems)
	save := bestSaveFor(params)
	switch opts.SaveRule {
	case SaveAll:
		save = make([]bool, d)
		for l := 1; l <= d-2; l++ {
			save[l] = true
		}
	case SaveNone:
		save = make([]bool, d)
	}
	p.Config = model.Config{Save: save, Cost: params.IterationCost(save)}
	p.AllConfigs = []model.Config{p.Config}
	p.PreprocessTime = time.Since(preStart)

	p.Tree = tree
	if opts.SliceSched {
		p.Part = sched.NewSlicePartitionNNZ(p.Tree, opts.Threads).ToPartition(p.Tree)
	} else {
		p.Part = sched.NewPartition(p.Tree, opts.Threads)
	}

	accumStart := time.Now()
	p.buildAccum()
	p.PreprocessTime += time.Since(accumStart)

	p.MemoBytes = p.Params.MemoBytes(p.Config.Save)
	p.CSFBytes = p.Tree.Bytes()
	for _, n := range tree.Dims() {
		p.FactorBytes += int64(n) * int64(opts.Rank) * 8
	}
	return p, nil
}

// levelRowStats condenses every level's row-write histogram for the
// model's accumulation-cost term.
func levelRowStats(tree *csf.Tree) []model.RowStats {
	d := tree.Order()
	stats := make([]model.RowStats, d)
	for u := 1; u < d; u++ {
		stats[u] = model.NewRowStats(tree.LevelRowCounts(u))
	}
	return stats
}

// swappedRowStats derives the swapped layout's row stats without building
// the swapped tree: levels 1..d-3 are unchanged, the last two come from
// the histograms of the extended Algorithm 9 scan (csf.SwappedRowCounts).
func swappedRowStats(baseStats []model.RowStats, d2, leaf []int64) []model.RowStats {
	d := len(baseStats)
	stats := make([]model.RowStats, d)
	copy(stats[:d-2], baseStats[:d-2])
	stats[d-2] = model.NewRowStats(d2)
	stats[d-1] = model.NewRowStats(leaf)
	return stats
}

// buildAccum fixes the accumulation plan for every non-root mode. The
// exact row-write census over the final tree and partition runs first; its
// counts and single/multi-writer classification replace the search-time
// histogram estimates, so the stored Params price the partition actually
// used. Each level takes the strategy of the model's accumulation rule
// (Params.Privatized).
func (p *Plan) buildAccum() {
	opts := p.Opts
	d := p.Tree.Order()
	params := model.ParamsForCache(p.Tree.Dims(), p.Tree.FiberCounts(), opts.Rank, opts.CacheBytes)
	stats := make([]model.RowStats, d)
	rws := make([]*kernels.RowWrites, d)
	for u := 1; u < d; u++ {
		if u == d-1 && p.Tree2 != nil {
			// STeF2 runs the leaf mode as the auxiliary CSF's root: no
			// census, so the level keeps its histogram stats.
			stats[u] = model.NewRowStats(p.Tree.LevelRowCounts(u))
			continue
		}
		src := model.SourceLevel(p.Config.Save, u)
		rws[u] = kernels.CountRowWrites(p.Tree, p.Part, u, src)
		st := model.NewRowStats(rws[u].Counts)
		st.MultiMass = rws[u].MultiWriterMass()
		st.MultiExact = true
		stats[u] = st
	}
	params.AttachAccum(stats, opts.Threads, opts.MaxPrivElems)
	p.Params = params
	p.Accum = make([]*kernels.AccumPlan, d)
	hotBudget := (opts.CacheBytes / 8) / 2
	for u := 1; u < d; u++ {
		if rws[u] == nil {
			continue
		}
		strat := kernels.AccumHybrid
		if params.Privatized(u) {
			strat = kernels.AccumPriv
		}
		p.Accum[u] = kernels.PlanAccum(rws[u], opts.Rank, opts.Threads, strat, hotBudget)
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
