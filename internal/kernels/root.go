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

// rootGeneric is the order-agnostic recursive root kernel.
func rootGeneric(tree *csf.Tree, factors []*tensor.Matrix, out *tensor.Matrix, partials *Partials, part *sched.Partition, sc *Scratch) {
	d := tree.Order()
	bound := sc.bound
	par.Do(part.T, func(th int) {
		s := part.Start[th]
		e := part.Own[th+1] // exclusive end of touched nodes per level
		ownLo := part.Own[th]
		if s[0] >= e[0] {
			return // thread has no leaves
		}
		// One accumulator per level, reused depth-first.
		tmp := make([][]float64, d-1)
		for l := range tmp {
			tmp[l] = sc.vec(th, l) //gate:allow bounds scratch slots are sized to the order
		}
		// Rebind the rank-vector primitives to the scratch's set (vec.go);
		// the names shadow the generic package functions on purpose.
		zero, addScaled, hadamardAccum := sc.ops.zero, sc.ops.addScaled, sc.ops.hadamardAccum
		var rec func(l int, n int64)
		rec = func(l int, n int64) {
			tl := tmp[l]
			zero(tl)
			cLo := maxI64(tree.PtrLevel(l)[n], s[l+1])
			cHi := minI64(tree.PtrLevel(l)[n+1], e[l+1])
			if l+1 == d-1 {
				for k := cLo; k < cHi; k++ {
					addScaled(tl, tree.ValsLevel()[k], factors[d-1].Row(int(tree.FidLevel(d - 1)[k]))) //gate:allow bounds leaf values and factor rows are addressed by stored fiber ids, data-dependent
				}
				return
			}
			for c := cLo; c < cHi; c++ {
				rec(l+1, c)
				child := tmp[l+1]       //gate:allow bounds level arrays are indexed by the recursion depth, sized to the order
				if partials.Save[l+1] { //gate:allow bounds level arrays are indexed by the recursion depth, sized to the order
					if c >= ownLo[l+1] { //gate:allow bounds level arrays are indexed by the recursion depth, sized to the order
						sc.shadow.own(th, l+1, c)
						copy(partials.P[l+1].Row(int(c)), child) //gate:allow bounds memoized partial row addressed by node id, data-dependent
					} else {
						sc.shadow.boundary(th, l+1, c)
						copy(bound[l+1].Row(th), child) //gate:allow bounds boundary replica row per level, sized to the order
					}
				}
				hadamardAccum(tl, child, factors[l+1].Row(int(tree.FidLevel(l + 1)[c]))) //gate:allow bounds factor row addressed by stored fiber id, data-dependent
			}
		}
		for n := s[0]; n < e[0]; n++ {
			rec(0, n)
			if n >= ownLo[0] { //gate:allow bounds ownLo is sized to the order; constant level index
				sc.shadow.own(th, 0, n)
				copy(out.Row(int(tree.FidLevel(0)[n])), tmp[0]) //gate:allow bounds output row addressed by stored fiber id, data-dependent
			} else {
				sc.shadow.boundary(th, 0, n)
				copy(bound[0].Row(th), tmp[0]) //gate:allow bounds boundary replica row, one per thread
			}
		}
	})
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
