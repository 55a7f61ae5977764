package kernels

import (
	"fmt"

	"stef/internal/csf"
	"stef/internal/par"
	"stef/internal/sched"
	"stef/internal/tensor"
)

// RootMTTKRP computes the mode-0 MTTKRP with a freshly allocated scratch;
// see RootMTTKRPWith. It is the convenient form for one-shot callers and
// tests; engines on the repeated-solve path pass a pooled scratch instead.
func RootMTTKRP(tree *csf.Tree, factors []*tensor.Matrix, out *tensor.Matrix, partials *Partials, part *sched.Partition) {
	RootMTTKRPWith(tree, factors, out, partials, part, NewScratch(tree.Order(), factors[0].Cols, part.T))
}

// RootMTTKRPWith computes the mode-0 MTTKRP of the CSF tree (the mode
// stored at the tree's root level) into out, memoizing P^(l) for every
// level with partials.Save[l] set, in a single downward pass (Algorithm 4/5
// with u = 0). factors are indexed by CSF level, i.e. factors[l]
// corresponds to tree level l, and out receives the result for the root
// level's mode. sc supplies the per-thread accumulators and boundary rows;
// it must satisfy NewScratch(tree.Order(), R, part.T) or larger.
//
// Parallelism follows the partition: each thread processes its leaf range;
// fibers whose leaves span a thread boundary are accumulated into boundary
// replica rows and merged afterwards, so no atomics and no full output
// privatization are needed (Section III-A). Every order takes the same
// recursive walk (rootWalk), which ends in one fused call per run of
// level d-2 fibers or per level d-4 node (vec.go).
func RootMTTKRPWith(tree *csf.Tree, factors []*tensor.Matrix, out *tensor.Matrix, partials *Partials, part *sched.Partition, sc *Scratch) {
	lifeEnter(tree, sc)
	d := tree.Order()
	if len(factors) != d {
		panic(fmt.Sprintf("kernels: %d factors for order-%d tensor", len(factors), d))
	}
	r := factors[0].Cols
	if out.Rows != tree.Dim(0) || out.Cols != r {
		panic(fmt.Sprintf("kernels: output shape %dx%d, want %dx%d", out.Rows, out.Cols, tree.Dim(0), r))
	}
	sc.check(d, r, part.T)
	out.Zero()

	// Boundary replica rows: one per (thread, level), used both for saved
	// partial levels and, at level 0, for the output. A pooled scratch
	// carries stale rows from the previous launch; the merge below assumes
	// unwritten rows are zero, so clear the levels it will read.
	for l := 0; l < d-1; l++ {
		if l == 0 || partials.Save[l] { //gate:allow bounds Save is sized to the order; l ranges over levels
			sc.bound[l].Zero()
		}
	}

	sc.shadow.begin(part)
	rootGeneric(tree, factors, out, partials, part, sc)

	mergeBoundaries(tree, out, partials, part, sc.bound)
	sc.shadow.end()
}

// rootGeneric launches the root walk on every thread of the partition. At
// T == 1 it calls the thread body directly: a closure passed to par.Do
// always escapes, so building it only on the multi-threaded branch keeps a
// one-thread launch free of allocation.
func rootGeneric(tree *csf.Tree, factors []*tensor.Matrix, out *tensor.Matrix, partials *Partials, part *sched.Partition, sc *Scratch) {
	if part.T == 1 {
		rootGenericThread(0, tree, factors, out, partials, part, sc)
		return
	}
	par.Do(part.T, func(th int) { //gate:allow escape multi-threaded launch; the T==1 path above stays allocation-free
		rootGenericThread(th, tree, factors, out, partials, part, sc)
	})
}

// rootWalk is one thread's root walk. Its methods are the recursion, on a
// value that stays on the thread's stack, so the walk builds no closures.
type rootWalk struct {
	treeView
	partials *Partials
	sc       *Scratch
	ops      *vecOps
	th, d    int
	ownLo    []int64
}

// rootStep is the root walk's step at level l of an order-d tree with
// memo set save.
func rootStep(l, d int, save []bool) step {
	switch {
	case l+1 == d-1:
		return stepLeaves
	case l+2 == d-1 && save[l+1]:
		return stepFibers
	case l+2 == d-1:
		return stepRun
	case l+3 == d-1 && !save[l+1] && !save[l+2]:
		return stepNodeRun
	}
	return stepFold
}

// rootGenericThread is thread th's share of the root-mode MTTKRP.
func rootGenericThread(th int, tree *csf.Tree, factors []*tensor.Matrix, out *tensor.Matrix, partials *Partials, part *sched.Partition, sc *Scratch) {
	s := part.Start[th]
	e := part.Own[th+1] // exclusive end of touched nodes per level
	ownLo := part.Own[th]
	if s[0] >= e[0] {
		return // thread has no leaves
	}
	d := tree.Order()
	w := rootWalk{
		treeView: sc.view(th, tree, factors, s, e, d-1, s[d-1], e[d-1]),
		partials: partials, sc: sc, ops: &sc.ops,
		th: th, d: d, ownLo: ownLo,
	}
	for l, lv := 0, w.lv; l < len(lv); l++ {
		lv[l].step = rootStep(l, d, partials.Save) //gate:allow bounds memo flags are sized to the order; once per level and launch
	}
	root := &w.lv[0]
	for n := s[0]; n < e[0]; n++ {
		w.rec(0, n)
		if n >= ownLo[0] { //gate:allow bounds ownLo is sized to the order; constant level index
			sc.shadow.own(th, 0, n)
			copy(out.Row(int(root.fids[n])), root.t) //gate:allow bounds output row addressed by stored fiber id, data-dependent
		} else {
			sc.shadow.boundary(th, 0, n)
			copy(sc.bound[0].Row(th), root.t) //gate:allow bounds boundary replica row, one per thread
		}
	}
}

// rec computes t_l for node n at level l into lv[l].t, storing the memo
// rows of the saved levels below it.
func (w *rootWalk) rec(l int, n int64) {
	lv := &w.lv[l] //gate:allow bounds level table indexed by the recursion depth, sized to the order
	cLo, cHi := lv.window(n)
	if lv.step == stepLeaves {
		// Order 2: the root's children are the leaves.
		w.ops.fiberSum(lv.t, w.fibers.vals[cLo:cHi], w.fibers.fids[cLo:cHi], w.leafF) //gate:allow bounds leaf window from the fiber pointers, data-dependent
		return
	}
	w.ops.zero(lv.t)
	ch := &w.lv[l+1] //gate:allow bounds level table indexed by the recursion depth, sized to the order
	switch lv.step {
	case stepRun:
		// The children are level d-2 fibers with no memo: their leaf
		// sums and fold-ups in one call.
		w.ops.runHad(lv.t, ch.t, ch.f, w.run(cLo, cHi), w.leafF)
	case stepNodeRun:
		// The children are level d-3 nodes, and neither they nor their
		// fibers are memoized: every child's run of fibers, and its fold
		// into t_l, in one call.
		nr := w.nodeRun(ch, cLo, cHi)
		w.sc.shadow.ownNodeRun(w.th, w.d-1, &nr)
		gc := &w.lv[l+2] //gate:allow bounds level table indexed by the recursion depth, sized to the order
		w.ops.nodeHad(lv.t, ch.t, gc.t, ch.f, gc.f, nr, w.leafF)
	case stepFibers:
		// The children are level d-2 fibers whose sums the memo copy
		// needs: one call per fiber for its leaf sum and fold-up.
		for c := cLo; c < cHi; c++ {
			kLo, kHi := ch.window(c)                                                                                       //gate:allow bounds fiber pointers indexed by a partition-clamped node id, data-dependent
			w.ops.fiberHad(lv.t, ch.t, ch.f.Row(int(ch.fids[c])), w.fibers.vals[kLo:kHi], w.fibers.fids[kLo:kHi], w.leafF) //gate:allow bounds fiber row and leaf window addressed by stored ids and pointers, data-dependent
			w.store(l+1, c, ch.t)
		}
	default:
		save := w.partials.Save[l+1] //gate:allow bounds level arrays are indexed by the recursion depth, sized to the order
		for c := cLo; c < cHi; c++ {
			w.rec(l+1, c)
			w.ops.hadamardAccum(lv.t, ch.t, ch.f.Row(int(ch.fids[c]))) //gate:allow bounds factor row addressed by stored fiber id, data-dependent
			if save {
				w.store(l+1, c, ch.t) //gate:allow bounds memo row vs boundary replica chosen by a data-dependent owner test
			}
		}
	}
}

// store copies t_l of node c into its memo row, or into the thread's
// boundary replica row when c is the thread's shared first node.
func (w *rootWalk) store(l int, c int64, t []float64) {
	if c >= w.ownLo[l] {
		w.sc.shadow.own(w.th, l, c)
		copy(w.partials.P[l].Row(int(c)), t)
	} else {
		w.sc.shadow.boundary(w.th, l, c)
		copy(w.sc.bound[l].Row(w.th), t)
	}
}

// mergeBoundaries folds the per-thread boundary replica rows into the
// canonical rows. Only a thread's first touched node per level can be
// non-owned, so each (thread, level) contributes at most one row; threads
// with no leaves never write their replica row, which RootMTTKRPWith
// zeroed, so merging unconditionally is safe. Levels with no saved partial
// are skipped: their replica rows are never written (and never cleared).
func mergeBoundaries(tree *csf.Tree, out *tensor.Matrix, partials *Partials, part *sched.Partition, bound []*tensor.Matrix) {
	d := tree.Order()
	for th := 1; th < part.T; th++ {
		for l := 0; l < d-1; l++ {
			if l > 0 && !partials.Save[l] {
				continue
			}
			if bound[l] == nil || !part.SharedStart(th, l) {
				continue
			}
			nd := part.Start[th][l]
			src := bound[l].Row(th)
			var dst []float64
			if l == 0 {
				dst = out.Row(int(tree.FidLevel(0)[nd]))
			} else {
				dst = partials.P[l].Row(int(nd))
			}
			for j := range dst {
				dst[j] += src[j]
			}
		}
	}
}
