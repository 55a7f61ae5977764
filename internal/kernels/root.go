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
// privatization are needed (Section III-A). Orders 3 and 4 dispatch to
// unrolled specialisations (root3.go); other orders use the generic
// recursive kernel, which is the semantic reference.
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
	switch d {
	case 3:
		root3(tree, factors, out, partials, part, sc)
	case 4:
		root4(tree, factors, out, partials, part, sc)
	case 5:
		root5(tree, factors, out, partials, part, sc)
	default:
		rootGeneric(tree, factors, out, partials, part, sc)
	}

	mergeBoundaries(tree, out, partials, part, sc.bound)
	sc.shadow.end()
}

// rootGeneric is the order-agnostic recursive root kernel. At T == 1 it
// calls the thread body directly, as the specialisations do, so a launch
// allocates nothing.
func rootGeneric(tree *csf.Tree, factors []*tensor.Matrix, out *tensor.Matrix, partials *Partials, part *sched.Partition, sc *Scratch) {
	if part.T == 1 {
		rootGenericThread(0, tree, factors, out, partials, part, sc)
		return
	}
	par.Do(part.T, func(th int) { //gate:allow escape multi-threaded launch; the T==1 path above stays allocation-free
		rootGenericThread(th, tree, factors, out, partials, part, sc)
	})
}

// rootWalk is one thread's generic root walk. Its methods are the
// recursion, on a value that stays on the thread's stack, so the walk
// builds no closures.
type rootWalk struct {
	tree        *csf.Tree
	factors     []*tensor.Matrix
	partials    *Partials
	sc          *Scratch
	ops         *vecOps
	th, d       int
	s, e, ownLo []int64
	tmp         [][]float64 // one accumulator per level, reused depth-first
	vals        []float64
	leafFids    []int32
	leafF       *tensor.Matrix
}

// rootGenericThread is thread th's share of the generic root-mode MTTKRP.
func rootGenericThread(th int, tree *csf.Tree, factors []*tensor.Matrix, out *tensor.Matrix, partials *Partials, part *sched.Partition, sc *Scratch) {
	s := part.Start[th]
	e := part.Own[th+1] // exclusive end of touched nodes per level
	ownLo := part.Own[th]
	if s[0] >= e[0] {
		return // thread has no leaves
	}
	d := tree.Order()
	w := rootWalk{
		tree: tree, factors: factors, partials: partials, sc: sc, ops: &sc.ops,
		th: th, d: d, s: s, e: e, ownLo: ownLo,
		tmp:  sc.levelVecs(th),
		vals: tree.ValsLevel(), leafFids: tree.FidLevel(d - 1), leafF: factors[d-1], //gate:allow bounds leaf level hoisted once per launch; d-1 is the tree's last level
	}
	for n := s[0]; n < e[0]; n++ {
		w.rec(0, n)
		if n >= ownLo[0] { //gate:allow bounds ownLo is sized to the order; constant level index
			sc.shadow.own(th, 0, n)
			copy(out.Row(int(tree.FidLevel(0)[n])), w.tmp[0]) //gate:allow bounds output row addressed by stored fiber id, data-dependent
		} else {
			sc.shadow.boundary(th, 0, n)
			copy(sc.bound[0].Row(th), w.tmp[0]) //gate:allow bounds boundary replica row, one per thread
		}
	}
}

// window returns node n's child range at level l+1, clamped to the
// thread's nodes and never reversed.
func (w *rootWalk) window(l int, n int64) (int64, int64) {
	lo := maxI64(w.tree.PtrLevel(l)[n], w.s[l+1])
	return lo, max(lo, minI64(w.tree.PtrLevel(l)[n+1], w.e[l+1]))
}

// rec computes t_l for node n at level l into tmp[l], storing the memo
// rows of the saved levels below it.
func (w *rootWalk) rec(l int, n int64) {
	tree, factors, partials, d := w.tree, w.factors, w.partials, w.d
	tl := w.tmp[l]
	cLo, cHi := w.window(l, n)
	if l+1 == d-1 {
		// Order 2: the root's children are the leaves.
		w.ops.fiberSum(tl, w.vals[cLo:cHi], w.leafFids[cLo:cHi], w.leafF) //gate:allow bounds leaf window from the fiber pointers, data-dependent
		return
	}
	w.ops.zero(tl)
	if l+2 == d-1 && !partials.Save[l+1] { //gate:allow bounds level arrays are indexed by the recursion depth, sized to the order
		// The children are level d-2 fibers with no memo: their
		// leaf sums and fold-ups in one call.
		w.ops.runHad(tl, w.tmp[l+1], factors[l+1], runOf(tree, l+1, cLo, cHi, w.s[d-1], w.e[d-1]), w.leafF) //gate:allow bounds level arrays are indexed by the recursion depth, sized to the order
		return
	}
	for c := cLo; c < cHi; c++ {
		child := w.tmp[l+1]                                 //gate:allow bounds level arrays are indexed by the recursion depth, sized to the order
		g := factors[l+1].Row(int(tree.FidLevel(l + 1)[c])) //gate:allow bounds factor row addressed by stored fiber id, data-dependent
		if l+2 == d-1 {
			// The child is a level d-2 fiber whose sum the memo
			// copy below needs: one call for its leaf sum and
			// fold-up.
			kLo, kHi := w.window(l+1, c)                                                //gate:allow bounds fiber pointers indexed by a partition-clamped node id, data-dependent
			w.ops.fiberHad(tl, child, g, w.vals[kLo:kHi], w.leafFids[kLo:kHi], w.leafF) //gate:allow bounds leaf window from the fiber pointers, data-dependent
		} else {
			w.rec(l+1, c)
			w.ops.hadamardAccum(tl, child, g)
		}
		if partials.Save[l+1] { //gate:allow bounds level arrays are indexed by the recursion depth, sized to the order
			if c >= w.ownLo[l+1] { //gate:allow bounds level arrays are indexed by the recursion depth, sized to the order
				w.sc.shadow.own(w.th, l+1, c)
				copy(partials.P[l+1].Row(int(c)), child) //gate:allow bounds memoized partial row addressed by node id, data-dependent
			} else {
				w.sc.shadow.boundary(w.th, l+1, c)
				copy(w.sc.bound[l+1].Row(w.th), child) //gate:allow bounds boundary replica row per level, sized to the order
			}
		}
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
