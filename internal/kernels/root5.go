package kernels

import (
	"stef/internal/csf"
	"stef/internal/par"
	"stef/internal/sched"
	"stef/internal/tensor"
)

// root5 dispatches the order-5 specialisation of the balanced root-mode
// MTTKRP (see root3.go for the scheme, including the hoisted level slices
// and the T==1 closure-free path). Three of the sixteen benchmark tensors
// are 5-way, so the unrolled form pays for itself.
func root5(tree *csf.Tree, factors []*tensor.Matrix, out *tensor.Matrix, partials *Partials, part *sched.Partition, sc *Scratch) {
	if part.T == 1 {
		root5Thread(0, tree, factors, out, partials, part, sc)
		return
	}
	par.Do(part.T, func(th int) { //gate:allow escape multi-threaded launch; the T==1 path above stays allocation-free
		root5Thread(th, tree, factors, out, partials, part, sc)
	})
}

// root5Thread is thread th's share of the order-5 root-mode MTTKRP.
func root5Thread(th int, tree *csf.Tree, factors []*tensor.Matrix, out *tensor.Matrix, partials *Partials, part *sched.Partition, sc *Scratch) {
	f1, f2, f3, f4 := factors[1], factors[2], factors[3], factors[4]
	save1, save2, save3 := partials.Save[1], partials.Save[2], partials.Save[3]
	ptr0, ptr1, ptr2, ptr3 := tree.PtrLevel(0), tree.PtrLevel(1), tree.PtrLevel(2), tree.PtrLevel(3)
	fids0, fids1, fids2, fids3, fids4 := tree.FidLevel(0), tree.FidLevel(1), tree.FidLevel(2), tree.FidLevel(3), tree.FidLevel(4)
	vals := tree.ValsLevel()

	store := func(level int, n int64, ownLo []int64, t []float64) {
		if n >= ownLo[level] {
			sc.shadow.own(th, level, n)
			copy(partials.P[level].Row(int(n)), t)
		} else {
			sc.shadow.boundary(th, level, n)
			copy(sc.bound[level].Row(th), t)
		}
	}

	s := part.Start[th]
	e := part.Own[th+1]
	ownLo := part.Own[th]
	if s[0] >= e[0] {
		return
	}
	s1, s2, s3, s4 := s[1], s[2], s[3], s[4]
	e1, e2, e3, e4 := e[1], e[2], e[3], e[4]
	own0 := ownLo[0]
	bnd0 := sc.bound[0].Row(th)
	t0 := sc.vec(th, 0)
	t1 := sc.vec(th, 1)
	t2 := sc.vec(th, 2)
	t3 := sc.vec(th, 3)
	// Rebind the primitives to the scratch's set (vec.go); the names shadow
	// the generic package functions on purpose.
	zero, hadamardAccum, fiberHad, runHad, nodeHad := sc.ops.zero, sc.ops.hadamardAccum, sc.ops.fiberHad, sc.ops.runHad, sc.ops.nodeHad
	for n0 := s[0]; n0 < e[0]; n0++ {
		zero(t0)
		c1Lo := maxI64(ptr0[n0], s1)   //gate:allow bounds fiber pointer indexed by a partition-clamped node id, data-dependent
		c1Hi := minI64(ptr0[n0+1], e1) //gate:allow bounds fiber pointer indexed by a partition-clamped node id, data-dependent
		for n1 := c1Lo; n1 < c1Hi; n1++ {
			zero(t1)
			c2Lo := maxI64(ptr1[n1], s2)   //gate:allow bounds fiber pointer indexed by a partition-clamped node id, data-dependent
			c2Hi := minI64(ptr1[n1+1], e2) //gate:allow bounds fiber pointer indexed by a partition-clamped node id, data-dependent
			if !save2 && !save3 {
				// No memo at level 2 or 3: every level-2 child's run of
				// level-3 fibers, and its fold into t1, in one call.
				c2Hi = max(c2Lo, c2Hi)
				nodeHad(t1, t2, t3, f2, f3, nodeRun{nids: fids2[c2Lo:c2Hi], ptr: ptr2[c2Lo : c2Hi+1], cMin: s3, cMax: e3, //gate:allow bounds run of nodes from the fiber pointers, data-dependent
					fibers: fiberRun{mids: fids3, ptr: ptr3, kMin: s4, kMax: e4, vals: vals, fids: fids4}}, f4)
			} else {
				for n2 := c2Lo; n2 < c2Hi; n2++ {
					zero(t2)
					c3Lo := maxI64(ptr2[n2], s3)              //gate:allow bounds fiber pointer indexed by a partition-clamped node id, data-dependent
					c3Hi := max(c3Lo, minI64(ptr2[n2+1], e3)) //gate:allow bounds fiber pointer indexed by a partition-clamped node id, data-dependent
					if !save3 {
						// No memo at level 3: the whole run of level-3
						// fibers in one call. A memo needs each fiber's
						// sum: one call per fiber, then its copy.
						runHad(t2, t3, f3, fiberRun{mids: fids3[c3Lo:c3Hi], ptr: ptr3[c3Lo : c3Hi+1], kMin: s4, kMax: e4, vals: vals, fids: fids4}, f4) //gate:allow bounds run of fibers from the fiber pointers, data-dependent
					} else {
						for n3 := c3Lo; n3 < c3Hi; n3++ {
							c4Lo := maxI64(ptr3[n3], s4)                               //gate:allow bounds fiber pointer indexed by a partition-clamped node id, data-dependent
							c4Hi := max(c4Lo, minI64(ptr3[n3+1], e4))                  //gate:allow bounds fiber pointer indexed by a partition-clamped node id, data-dependent
							g := f3.Row(int(fids3[n3]))                                //gate:allow bounds factor row addressed by stored fiber id, data-dependent
							fiberHad(t2, t3, g, vals[c4Lo:c4Hi], fids4[c4Lo:c4Hi], f4) //gate:allow bounds leaf window from the fiber pointers, data-dependent
							store(3, n3, ownLo, t3)                                    //gate:allow bounds memo row vs boundary replica chosen by a data-dependent owner test
						}
					}
					if save2 {
						store(2, n2, ownLo, t2) //gate:allow bounds memo row vs boundary replica chosen by a data-dependent owner test
					}
					hadamardAccum(t1, t2, f2.Row(int(fids2[n2]))) //gate:allow bounds factor row addressed by stored fiber id, data-dependent
				}
			}
			if save1 {
				store(1, n1, ownLo, t1) //gate:allow bounds memo row vs boundary replica chosen by a data-dependent owner test
			}
			hadamardAccum(t0, t1, f1.Row(int(fids1[n1]))) //gate:allow bounds factor row addressed by stored fiber id, data-dependent
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
