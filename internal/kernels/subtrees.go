package kernels

import (
	"stef/internal/csf"
	"stef/internal/tensor"
)

// RootMTTKRPSubtrees sequentially accumulates the mode-0 MTTKRP
// contributions of root slices [lo, hi) into out (which is NOT zeroed) and
// stores memoized partials for those subtrees. It is the building block for
// chunk-scheduled engines (e.g. the TACO-style baseline), where a dynamic
// scheduler hands out disjoint slice ranges to workers: root rows are
// disjoint across slices, so concurrent calls on disjoint ranges are safe.
func RootMTTKRPSubtrees(tree *csf.Tree, factors []*tensor.Matrix, out *tensor.Matrix, partials *Partials, lo, hi int64) {
	rootSubtrees(opsFor(), tree, factors, out, partials, lo, hi)
}

// rootSubtrees is RootMTTKRPSubtrees with the primitive set ops.
func rootSubtrees(ops vecOps, tree *csf.Tree, factors []*tensor.Matrix, out *tensor.Matrix, partials *Partials, lo, hi int64) {
	d := tree.Order()
	r := factors[0].Cols
	tmp := make([][]float64, d-1)
	for l := range tmp {
		//gate:allow escape,bounds per-call accumulator setup, once per subtree range, not per-nnz
		tmp[l] = make([]float64, r) //lint:allow hotpath-alloc per-call setup, once per subtree range
	}
	// Rebind the primitives to ops; the names shadow the generic package
	// functions on purpose.
	zero, hadamardAccum, fiberSum, fiberHad := ops.zero, ops.hadamardAccum, ops.fiberSum, ops.fiberHad
	vals, leafFids, leafF := tree.ValsLevel(), tree.FidLevel(d-1), factors[d-1] //gate:allow bounds leaf level hoisted once per call; d-1 is the tree's last level
	var rec func(l int, n int64)
	rec = func(l int, n int64) {
		tl := tmp[l]
		cLo, cHi := tree.PtrLevel(l)[n], tree.PtrLevel(l)[n+1]
		if l+1 == d-1 {
			// Order 2: the root's children are the leaves.
			fiberSum(tl, vals[cLo:cHi], leafFids[cLo:cHi], leafF) //gate:allow bounds leaf window from the fiber pointers, data-dependent
			return
		}
		zero(tl)
		for c := cLo; c < cHi; c++ {
			child := tmp[l+1]                                   //gate:allow bounds level arrays are indexed by the recursion depth, sized to the order
			g := factors[l+1].Row(int(tree.FidLevel(l + 1)[c])) //gate:allow bounds factor row addressed by stored fiber id, data-dependent
			if l+2 == d-1 {
				kLo, kHi := tree.PtrLevel(l + 1)[c], tree.PtrLevel(l + 1)[c+1]  //gate:allow bounds fiber pointers indexed by a node id, data-dependent
				fiberHad(tl, child, g, vals[kLo:kHi], leafFids[kLo:kHi], leafF) //gate:allow bounds leaf window from the fiber pointers, data-dependent
			} else {
				rec(l+1, c)
				hadamardAccum(tl, child, g)
			}
			if partials.Save[l+1] { //gate:allow bounds level arrays are indexed by the recursion depth, sized to the order
				copy(partials.P[l+1].Row(int(c)), child) //gate:allow bounds memoized partial row addressed by node id, data-dependent
			}
		}
	}
	for n := lo; n < hi; n++ {
		rec(0, n)
		dst := out.Row(int(tree.FidLevel(0)[n])) //gate:allow bounds output row addressed by stored fiber id, data-dependent
		for j := range dst {
			dst[j] += tmp[0][j] //gate:allow bounds accumulator and output rows share rank length, unprovable across slices
		}
	}
}

// ModeMTTKRPSubtrees sequentially accumulates the level-u MTTKRP
// contributions of root slices [lo, hi) into out (NOT zeroed; the caller
// privatizes or serialises writes). It reads partials.SourceLevel(u) like
// ModeMTTKRP.
func ModeMTTKRPSubtrees(tree *csf.Tree, factors []*tensor.Matrix, u int, partials *Partials, out *tensor.Matrix, lo, hi int64) {
	modeSubtrees(opsFor(), tree, factors, u, partials, out, lo, hi)
}

// modeSubtrees is ModeMTTKRPSubtrees with the primitive set ops.
func modeSubtrees(ops vecOps, tree *csf.Tree, factors []*tensor.Matrix, u int, partials *Partials, out *tensor.Matrix, lo, hi int64) {
	d := tree.Order()
	src := partials.SourceLevel(u)
	r := factors[0].Cols
	kv := make([][]float64, u)
	for l := 1; l < u; l++ {
		//gate:allow escape,bounds per-call accumulator setup, once per subtree range, not per-nnz
		kv[l] = make([]float64, r) //lint:allow hotpath-alloc per-call setup, once per subtree range
	}
	tmp := make([][]float64, src)
	for l := u; l < src; l++ {
		//gate:allow escape,bounds per-call accumulator setup, once per subtree range, not per-nnz
		tmp[l] = make([]float64, r) //lint:allow hotpath-alloc per-call setup, once per subtree range
	}
	// Rebind the primitives to ops; the names shadow the generic package
	// functions on purpose.
	zero, addScaled, hadamardAccum, hadamardInto, runHad := ops.zero, ops.addScaled, ops.hadamardAccum, ops.hadamardInto, ops.runHad
	leafF, nnz := factors[d-1], tree.NNZ64() //gate:allow bounds leaf factor hoisted once per call; d-1 is the tree's last level
	// down computes t_l for node n at level l (u <= l < src; with the
	// leaves as source, l < d-2, since the level d-2 fibers go through
	// runHad).
	var down func(l int, n int64) []float64
	down = func(l int, n int64) []float64 {
		tl := tmp[l]
		zero(tl)
		cLo, cHi := tree.PtrLevel(l)[n], tree.PtrLevel(l)[n+1]
		switch {
		case l+1 == src:
			for c := cLo; c < cHi; c++ {
				hadamardAccum(tl, partials.P[src].Row(int(c)), factors[src].Row(int(tree.FidLevel(src)[c]))) //gate:allow bounds factor row addressed by stored fiber id, data-dependent
			}
		case l+2 == src && src == d-1:
			runHad(tl, tmp[l+1], factors[l+1], runOf(tree, l+1, cLo, cHi, 0, nnz), leafF) //gate:allow bounds level arrays are indexed by the recursion depth, sized to the order
		default:
			for c := cLo; c < cHi; c++ {
				hadamardAccum(tl, down(l+1, c), factors[l+1].Row(int(tree.FidLevel(l + 1)[c]))) //gate:allow bounds factor row addressed by stored fiber id, data-dependent
			}
		}
		return tl
	}
	var walk func(l int, n int64, kprev []float64)
	walk = func(l int, n int64, kprev []float64) {
		fid := int(tree.FidLevel(l)[n])
		cLo, cHi := tree.PtrLevel(l)[n], tree.PtrLevel(l)[n+1]
		var kcur []float64
		if l == 0 {
			kcur = factors[0].Row(fid)
		} else {
			kcur = kv[l]
			hadamardInto(kcur, kprev, factors[l].Row(fid))
		}
		switch {
		case u == d-1 && l == d-3:
			// Leaf mode: the children's push-downs and leaf scatters
			// in one call.
			ops.runScatter(out, kv[d-2], kcur, factors[d-2], runOf(tree, d-2, cLo, cHi, 0, nnz)) //gate:allow bounds level arrays are indexed by the recursion depth, sized to the order
		case l+1 < u:
			for c := cLo; c < cHi; c++ {
				walk(l+1, c, kcur)
			}
		case u == d-1:
			// Order 2's leaf mode: k_0 is a factor row.
			vals, leafFids := tree.ValsLevel(), tree.FidLevel(d-1) //gate:allow bounds leaf level of an order-2 tree; d-1 is its last level
			for k := cLo; k < cHi; k++ {
				addScaled(out.Row(int(leafFids[k])), vals[k], kcur) //gate:allow bounds leaf values and factor rows are addressed by stored fiber ids, data-dependent
			}
		case u == src:
			for c := cLo; c < cHi; c++ {
				hadamardAccum(out.Row(int(tree.FidLevel(u)[c])), kcur, partials.P[u].Row(int(c))) //gate:allow bounds factor row addressed by stored fiber id, data-dependent
			}
		case u == d-2 && src == d-1:
			ops.runOut(out, tmp[u], kcur, runOf(tree, u, cLo, cHi, 0, nnz), leafF) //gate:allow bounds level arrays are indexed by the recursion depth, sized to the order
		default:
			for c := cLo; c < cHi; c++ {
				hadamardAccum(out.Row(int(tree.FidLevel(u)[c])), kcur, down(u, c)) //gate:allow bounds factor row addressed by stored fiber id, data-dependent
			}
		}
	}
	for n := lo; n < hi; n++ {
		walk(0, n, nil)
	}
}
