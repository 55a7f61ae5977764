package kernels

import (
	"stef/internal/csf"
	"stef/internal/par"
	"stef/internal/sched"
	"stef/internal/tensor"
)

// This file contains hand-specialised root-mode kernels for 3- and 4-way
// tensors — the overwhelmingly common cases in the benchmark suite. They
// are loop-for-loop identical to the generic recursive kernel (root.go)
// with the recursion unrolled, which removes call overhead and lets the
// compiler keep the accumulator rows in registers across the innermost
// rank loop. RootMTTKRPWith dispatches to them automatically; the generic
// path remains the reference for all other orders and is cross-checked
// against these in the tests.
//
// Each kernel is split into a dispatcher and a top-level per-thread body
// (root3Thread etc.). At T == 1 the dispatcher calls the body directly: a
// closure passed to par.Do always escapes (escape analysis is not
// path-sensitive about the goroutine branch), so constructing it only on
// the multi-threaded branch keeps the single-threaded steady state free of
// heap allocation.
//
// The CSF level arrays (Ptr, Fids, Vals) and the per-thread partition
// bounds are hoisted into locals ahead of the loop nests: the slice
// headers live behind pointers the compiler must assume any store could
// alias, so without the hoist every Ptr[l][n] pays a double bounds check
// per iteration. The checks that survive hoisting are on indices read from
// the tensor itself (fiber ids, pointer ranges) — no compiler can prove
// those, and they carry //gate:allow with that justification.

// root3 dispatches the order-3 specialisation of the balanced root-mode
// MTTKRP.
func root3(tree *csf.Tree, factors []*tensor.Matrix, out *tensor.Matrix, partials *Partials, part *sched.Partition, sc *Scratch) {
	if part.T == 1 {
		root3Thread(0, tree, factors, out, partials, part, sc)
		return
	}
	par.Do(part.T, func(th int) { //gate:allow escape multi-threaded launch; the T==1 path above stays allocation-free
		root3Thread(th, tree, factors, out, partials, part, sc)
	})
}

// root3Thread is thread th's share of the order-3 root-mode MTTKRP.
func root3Thread(th int, tree *csf.Tree, factors []*tensor.Matrix, out *tensor.Matrix, partials *Partials, part *sched.Partition, sc *Scratch) {
	f1, f2 := factors[1], factors[2]
	save1 := partials.Save[1]
	ptr0, ptr1 := tree.PtrLevel(0), tree.PtrLevel(1)
	fids0, fids1, fids2 := tree.FidLevel(0), tree.FidLevel(1), tree.FidLevel(2)
	vals := tree.ValsLevel()

	s := part.Start[th]
	e := part.Own[th+1]
	ownLo := part.Own[th]
	if s[0] >= e[0] {
		return
	}
	s1, s2 := s[1], s[2]
	e1, e2 := e[1], e[2]
	own0, own1 := ownLo[0], ownLo[1]
	bnd0 := sc.bound[0].Row(th)
	var bnd1 []float64
	if save1 {
		bnd1 = sc.bound[1].Row(th)
	}
	t0 := sc.vec(th, 0)
	t1 := sc.vec(th, 1)
	// Rebind the primitives to the scratch's set (vec.go); the names shadow
	// the generic package functions on purpose.
	zero, fiberHad, runHad := sc.ops.zero, sc.ops.fiberHad, sc.ops.runHad
	for n0 := s[0]; n0 < e[0]; n0++ {
		zero(t0)
		c1Lo := maxI64(ptr0[n0], s1)              //gate:allow bounds fiber pointer indexed by a partition-clamped node id, data-dependent
		c1Hi := max(c1Lo, minI64(ptr0[n0+1], e1)) //gate:allow bounds fiber pointer indexed by a partition-clamped node id, data-dependent
		if !save1 {
			// No memo at level 1: the whole run of level-1 fibers in one
			// call. A memo needs each fiber's sum: one call per fiber, then
			// its copy.
			runHad(t0, t1, f1, fiberRun{mids: fids1[c1Lo:c1Hi], ptr: ptr1[c1Lo : c1Hi+1], kMin: s2, kMax: e2, vals: vals, fids: fids2}, f2) //gate:allow bounds run of fibers from the fiber pointers, data-dependent
		} else {
			for n1 := c1Lo; n1 < c1Hi; n1++ {
				c2Lo := maxI64(ptr1[n1], s2)                               //gate:allow bounds fiber pointer indexed by a partition-clamped node id, data-dependent
				c2Hi := max(c2Lo, minI64(ptr1[n1+1], e2))                  //gate:allow bounds fiber pointer indexed by a partition-clamped node id, data-dependent
				g := f1.Row(int(fids1[n1]))                                //gate:allow bounds factor row addressed by stored fiber id, data-dependent
				fiberHad(t0, t1, g, vals[c2Lo:c2Hi], fids2[c2Lo:c2Hi], f2) //gate:allow bounds leaf window from the fiber pointers, data-dependent
				if n1 >= own1 {
					sc.shadow.own(th, 1, n1)
					copy(partials.P[1].Row(int(n1)), t1) //gate:allow bounds memoized partial row addressed by node id, data-dependent
				} else {
					sc.shadow.boundary(th, 1, n1)
					copy(bnd1, t1)
				}
			}
		}
		if n0 >= own0 {
			sc.shadow.own(th, 0, n0)
			copy(out.Row(int(fids0[n0])), t0) //gate:allow bounds output row addressed by stored fiber id, data-dependent
		} else {
			sc.shadow.boundary(th, 0, n0)
			copy(bnd0, t0)
		}
	}
}

// root4 dispatches the order-4 specialisation of the balanced root-mode
// MTTKRP.
func root4(tree *csf.Tree, factors []*tensor.Matrix, out *tensor.Matrix, partials *Partials, part *sched.Partition, sc *Scratch) {
	if part.T == 1 {
		root4Thread(0, tree, factors, out, partials, part, sc)
		return
	}
	par.Do(part.T, func(th int) { //gate:allow escape multi-threaded launch; the T==1 path above stays allocation-free
		root4Thread(th, tree, factors, out, partials, part, sc)
	})
}

// root4Thread is thread th's share of the order-4 root-mode MTTKRP.
func root4Thread(th int, tree *csf.Tree, factors []*tensor.Matrix, out *tensor.Matrix, partials *Partials, part *sched.Partition, sc *Scratch) {
	f1, f2, f3 := factors[1], factors[2], factors[3]
	save1, save2 := partials.Save[1], partials.Save[2]
	ptr0, ptr1, ptr2 := tree.PtrLevel(0), tree.PtrLevel(1), tree.PtrLevel(2)
	fids0, fids1, fids2, fids3 := tree.FidLevel(0), tree.FidLevel(1), tree.FidLevel(2), tree.FidLevel(3)
	vals := tree.ValsLevel()

	s := part.Start[th]
	e := part.Own[th+1]
	ownLo := part.Own[th]
	if s[0] >= e[0] {
		return
	}
	s1, s2, s3 := s[1], s[2], s[3]
	e1, e2, e3 := e[1], e[2], e[3]
	own0, own1, own2 := ownLo[0], ownLo[1], ownLo[2]
	bnd0 := sc.bound[0].Row(th)
	var bnd1, bnd2 []float64
	if save1 {
		bnd1 = sc.bound[1].Row(th)
	}
	if save2 {
		bnd2 = sc.bound[2].Row(th)
	}
	t0 := sc.vec(th, 0)
	t1 := sc.vec(th, 1)
	t2 := sc.vec(th, 2)
	// Rebind the primitives to the scratch's set (vec.go); the names shadow
	// the generic package functions on purpose.
	zero, hadamardAccum, fiberHad, runHad, nodeHad := sc.ops.zero, sc.ops.hadamardAccum, sc.ops.fiberHad, sc.ops.runHad, sc.ops.nodeHad
	for n0 := s[0]; n0 < e[0]; n0++ {
		zero(t0)
		c1Lo := maxI64(ptr0[n0], s1)   //gate:allow bounds fiber pointer indexed by a partition-clamped node id, data-dependent
		c1Hi := minI64(ptr0[n0+1], e1) //gate:allow bounds fiber pointer indexed by a partition-clamped node id, data-dependent
		if !save1 && !save2 {
			// No memo at level 1 or 2: every level-1 child's run of
			// level-2 fibers, and its fold into t0, in one call.
			c1Hi = max(c1Lo, c1Hi)
			nodeHad(t0, t1, t2, f1, f2, nodeRun{nids: fids1[c1Lo:c1Hi], ptr: ptr1[c1Lo : c1Hi+1], cMin: s2, cMax: e2, //gate:allow bounds run of nodes from the fiber pointers, data-dependent
				fibers: fiberRun{mids: fids2, ptr: ptr2, kMin: s3, kMax: e3, vals: vals, fids: fids3}}, f3)
		} else {
			for n1 := c1Lo; n1 < c1Hi; n1++ {
				zero(t1)
				c2Lo := maxI64(ptr1[n1], s2)              //gate:allow bounds fiber pointer indexed by a partition-clamped node id, data-dependent
				c2Hi := max(c2Lo, minI64(ptr1[n1+1], e2)) //gate:allow bounds fiber pointer indexed by a partition-clamped node id, data-dependent
				if !save2 {
					// No memo at level 2: the whole run of level-2 fibers
					// in one call. A memo needs each fiber's sum: one call
					// per fiber, then its copy.
					runHad(t1, t2, f2, fiberRun{mids: fids2[c2Lo:c2Hi], ptr: ptr2[c2Lo : c2Hi+1], kMin: s3, kMax: e3, vals: vals, fids: fids3}, f3) //gate:allow bounds run of fibers from the fiber pointers, data-dependent
				} else {
					for n2 := c2Lo; n2 < c2Hi; n2++ {
						c3Lo := maxI64(ptr2[n2], s3)                               //gate:allow bounds fiber pointer indexed by a partition-clamped node id, data-dependent
						c3Hi := max(c3Lo, minI64(ptr2[n2+1], e3))                  //gate:allow bounds fiber pointer indexed by a partition-clamped node id, data-dependent
						g := f2.Row(int(fids2[n2]))                                //gate:allow bounds factor row addressed by stored fiber id, data-dependent
						fiberHad(t1, t2, g, vals[c3Lo:c3Hi], fids3[c3Lo:c3Hi], f3) //gate:allow bounds leaf window from the fiber pointers, data-dependent
						if n2 >= own2 {
							sc.shadow.own(th, 2, n2)
							copy(partials.P[2].Row(int(n2)), t2) //gate:allow bounds memoized partial row addressed by node id, data-dependent
						} else {
							sc.shadow.boundary(th, 2, n2)
							copy(bnd2, t2)
						}
					}
				}
				if save1 {
					if n1 >= own1 {
						sc.shadow.own(th, 1, n1)
						copy(partials.P[1].Row(int(n1)), t1) //gate:allow bounds memoized partial row addressed by node id, data-dependent
					} else {
						sc.shadow.boundary(th, 1, n1)
						copy(bnd1, t1)
					}
				}
				hadamardAccum(t0, t1, f1.Row(int(fids1[n1]))) //gate:allow bounds factor row addressed by stored fiber id, data-dependent
			}
		}
		if n0 >= own0 {
			sc.shadow.own(th, 0, n0)
			copy(out.Row(int(fids0[n0])), t0) //gate:allow bounds output row addressed by stored fiber id, data-dependent
		} else {
			sc.shadow.boundary(th, 0, n0)
			copy(bnd0, t0)
		}
	}
}
