//go:build amd64

package kernels

import (
	"fmt"

	"stef/internal/cpu"
	"stef/internal/tensor"
)

// Go declarations of the AVX2 primitives in vec_amd64.s. The .s file is
// assembled in every amd64 build, race builds included, so the contract
// tests reach it everywhere; only opsFor's selection skips it under -race.
// Each //asm:writes line names the arguments a fiber kernel stores into,
// for the write-disjoint analyzer.

//go:noescape
func addScaledAVX2(dst []float64, s float64, src []float64)

//go:noescape
func hadamardAccumAVX2(dst, a, b []float64)

//go:noescape
func hadamardIntoAVX2(dst, a, b []float64)

// nodeRunAsm walks a run of nodes, each with its run of fibers (see the
// comment in vec_amd64.s). For each node n it applies the node action:
// nodeNone folds the fibers straight into v; nodeFoldV and nodeFoldRow
// set t = +0, fold the fibers into t, then fold t into v with row
// nids[n] of the nmrows×len(child) matrix nm, or into that row with v;
// nodePush sets t = v ⊙ that row and folds the fibers into t. Each fiber
// c sums child = Σₖ vals[k]·f[fids[k]] over the rows×len(child) matrix f
// for the leaves k in [ptr[c], ptr[c+1]) clamped to [kmin, kmax); with
// fold it then folds the sum with row mids[c] of the mrows×len(child)
// matrix m, into the node's target or, with rowDst, into that row. Node
// n's fibers are [nptr[n], nptr[n+1]) clamped to [cmin, cmax). It reports
// false when a node id, fiber id or leaf id is out of range; the caller
// guarantees the rest (see nodeShapeOK).
//
//asm:writes v t child m nm
//go:noescape
func nodeRunAsm(v, t, child, m []float64, mrows int, nm []float64, nmrows int, nids []int32, nptr []int64, cmin, cmax int, mids []int32, ptr []int64, kmin, kmax int, vals []float64, fids []int32, f []float64, rows int, rowDst, fold bool, node uint8) (ok bool)

// The node actions of nodeRunAsm.
const (
	nodeNone    uint8 = iota // the one-level forms: one node, no node row
	nodeFoldV                // nodeHad: v += t ⊙ h
	nodeFoldRow              // nodeOut: h += v ⊙ t
	nodePush                 // nodePushOut: t = v ⊙ h, pushed down
)

// nodeRunScatterAsm computes, for each node n of a run clamped as in
// nodeRunAsm, with push, t = a ⊙ row nids[n] of nm, then for each of the
// node's fibers c, k = t (or a, without push) ⊙ row mids[c] of gm, and
// adds vals[j]·k into row fids[j] of the orows×len(k) matrix out, leaf by
// leaf. It reports false when an id is out of range; no row outside out
// is written.
//
//asm:writes out k t
//go:noescape
func nodeRunScatterAsm(out []float64, orows int, k, a, t, nm []float64, nmrows int, nids []int32, nptr []int64, cmin, cmax int, gm []float64, grows int, mids []int32, ptr []int64, kmin, kmax int, vals []float64, fids []int32, push bool) (ok bool)

// The fiber wrappers check what the assembly relies on: the rank R is
// len(child) or len(k), every other rank vector holds at least R values,
// each matrix's stride is R and its data covers every row, and every
// window lies in its arrays. The assembly checks each id itself, since it
// indexes rows without Go's bounds checks, and the wrapper panics on its
// flag as Row would. The one-level forms are one node, nodeNone, whose
// window [0, len(mids)) is the whole run.

// fiberSumAVX2 is the AVX2 form of fiberSum: a run of one fiber, not
// folded.
func fiberSumAVX2(child, vals []float64, fids []int32, f *tensor.Matrix) {
	if !fiberShapeOK(len(child), len(child), len(child), len(vals), len(fids), f) {
		badFiberShape(len(child), len(child), len(child), len(vals), len(fids), f)
	}
	nids, nptr, mids, ptr := [1]int32{}, [2]int64{0, 1}, [1]int32{}, [2]int64{0, int64(len(vals))}
	if !nodeRunAsm(nil, nil, child, child, 1, nil, 0, nids[:], nptr[:], 0, 1, mids[:], ptr[:], 0, len(vals), vals, fids, f.Data, f.Rows, false, false, nodeNone) {
		badFid(fids[:len(vals)], f.Rows)
	}
}

// fiberHadAVX2 is the AVX2 form of fiberHad: a run of one fiber whose g is
// the one row of a 1×R matrix.
func fiberHadAVX2(dst, child, g, vals []float64, fids []int32, f *tensor.Matrix) {
	if !fiberShapeOK(len(child), len(dst), len(g), len(vals), len(fids), f) {
		badFiberShape(len(child), len(dst), len(g), len(vals), len(fids), f)
	}
	nids, nptr, mids, ptr := [1]int32{}, [2]int64{0, 1}, [1]int32{}, [2]int64{0, int64(len(vals))}
	if !nodeRunAsm(dst, nil, child, g, 1, nil, 0, nids[:], nptr[:], 0, 1, mids[:], ptr[:], 0, len(vals), vals, fids, f.Data, f.Rows, false, true, nodeNone) {
		badFid(fids[:len(vals)], f.Rows)
	}
}

// runHadAVX2 is the AVX2 form of runHad.
func runHadAVX2(dst, child []float64, gm *tensor.Matrix, r fiberRun, f *tensor.Matrix) {
	if !fiberShapeOK(len(child), len(dst), len(child), 0, 0, gm) || !runShapeOK(len(child), r, f) {
		badRunShape(len(child), len(dst), gm, r, f)
	}
	nids, nptr := [1]int32{}, [2]int64{0, int64(len(r.mids))}
	if !nodeRunAsm(dst, nil, child, gm.Data, gm.Rows, nil, 0, nids[:], nptr[:], 0, len(r.mids), r.mids, r.ptr, int(r.kMin), int(r.kMax), r.vals, r.fids, f.Data, f.Rows, false, true, nodeNone) {
		badRunID(r, gm.Rows, f.Rows)
	}
}

// runOutAVX2 is the AVX2 form of runOut.
func runOutAVX2(out *tensor.Matrix, child, g []float64, r fiberRun, f *tensor.Matrix) {
	if !fiberShapeOK(len(child), len(g), len(child), 0, 0, out) || !runShapeOK(len(child), r, f) {
		badRunShape(len(child), len(g), out, r, f)
	}
	nids, nptr := [1]int32{}, [2]int64{0, int64(len(r.mids))}
	if !nodeRunAsm(g, nil, child, out.Data, out.Rows, nil, 0, nids[:], nptr[:], 0, len(r.mids), r.mids, r.ptr, int(r.kMin), int(r.kMax), r.vals, r.fids, f.Data, f.Rows, true, true, nodeNone) {
		badRunID(r, out.Rows, f.Rows)
	}
}

// runScatterAVX2 is the AVX2 form of runScatter.
func runScatterAVX2(out *tensor.Matrix, k, a []float64, gm *tensor.Matrix, r fiberRun) {
	if !fiberShapeOK(len(k), len(a), len(k), 0, 0, gm) || !runShapeOK(len(k), r, out) {
		badRunShape(len(k), len(a), gm, r, out)
	}
	nids, nptr := [1]int32{}, [2]int64{0, int64(len(r.mids))}
	if !nodeRunScatterAsm(out.Data, out.Rows, k, a, nil, nil, 0, nids[:], nptr[:], 0, len(r.mids), gm.Data, gm.Rows, r.mids, r.ptr, int(r.kMin), int(r.kMax), r.vals, r.fids, false) {
		badRunID(r, gm.Rows, out.Rows)
	}
}

// nodeHadAVX2 is the AVX2 form of nodeHad.
func nodeHadAVX2(dst, t, child []float64, gm, fm *tensor.Matrix, nr nodeRun, f *tensor.Matrix) {
	r := len(child)
	if !fiberShapeOK(r, len(dst), len(t), 0, 0, gm) || !nodeShapeOK(r, &nr, fm, f) {
		badNodeShape(r, len(dst), len(t), gm, fm, &nr, f)
	}
	fb := &nr.fibers
	if !nodeRunAsm(dst, t, child, fm.Data, fm.Rows, gm.Data, gm.Rows, nr.nids, nr.ptr, int(nr.cMin), int(nr.cMax), fb.mids, fb.ptr, int(fb.kMin), int(fb.kMax), fb.vals, fb.fids, f.Data, f.Rows, false, true, nodeFoldV) {
		badNodeID(&nr, gm.Rows, fm.Rows, f.Rows)
	}
}

// nodeOutAVX2 is the AVX2 form of nodeOut.
func nodeOutAVX2(out *tensor.Matrix, t, child, k []float64, fm *tensor.Matrix, nr nodeRun, f *tensor.Matrix) {
	r := len(child)
	if !fiberShapeOK(r, len(k), len(t), 0, 0, out) || !nodeShapeOK(r, &nr, fm, f) {
		badNodeShape(r, len(k), len(t), out, fm, &nr, f)
	}
	fb := &nr.fibers
	if !nodeRunAsm(k, t, child, fm.Data, fm.Rows, out.Data, out.Rows, nr.nids, nr.ptr, int(nr.cMin), int(nr.cMax), fb.mids, fb.ptr, int(fb.kMin), int(fb.kMax), fb.vals, fb.fids, f.Data, f.Rows, false, true, nodeFoldRow) {
		badNodeID(&nr, out.Rows, fm.Rows, f.Rows)
	}
}

// nodePushOutAVX2 is the AVX2 form of nodePushOut.
func nodePushOutAVX2(out *tensor.Matrix, kn, child, a []float64, gm *tensor.Matrix, nr nodeRun, f *tensor.Matrix) {
	r := len(child)
	if !fiberShapeOK(r, len(a), len(kn), 0, 0, gm) || !nodeShapeOK(r, &nr, out, f) {
		badNodeShape(r, len(a), len(kn), gm, out, &nr, f)
	}
	fb := &nr.fibers
	if !nodeRunAsm(a, kn, child, out.Data, out.Rows, gm.Data, gm.Rows, nr.nids, nr.ptr, int(nr.cMin), int(nr.cMax), fb.mids, fb.ptr, int(fb.kMin), int(fb.kMax), fb.vals, fb.fids, f.Data, f.Rows, true, true, nodePush) {
		badNodeID(&nr, gm.Rows, out.Rows, f.Rows)
	}
}

// nodePushScatterAVX2 is the AVX2 form of nodePushScatter.
func nodePushScatterAVX2(out *tensor.Matrix, kf, kn, a []float64, gm, fm *tensor.Matrix, nr nodeRun) {
	r := len(kf)
	if !fiberShapeOK(r, len(a), len(kn), 0, 0, gm) || !nodeShapeOK(r, &nr, fm, out) {
		badNodeShape(r, len(a), len(kn), gm, fm, &nr, out)
	}
	fb := &nr.fibers
	if !nodeRunScatterAsm(out.Data, out.Rows, kf, a, kn, gm.Data, gm.Rows, nr.nids, nr.ptr, int(nr.cMin), int(nr.cMax), fm.Data, fm.Rows, fb.mids, fb.ptr, int(fb.kMin), int(fb.kMax), fb.vals, fb.fids, true) {
		badNodeID(&nr, gm.Rows, fm.Rows, out.Rows)
	}
}

// fiberShapeOK reports whether the two rank vectors of lengths la and lb
// hold r values, fids covers the nnz leaves and m is a dense r-column
// matrix. It inlines into the wrappers; badFiberShape, their panic, does
// not.
func fiberShapeOK(r, la, lb, nnz, nfids int, m *tensor.Matrix) bool {
	return la >= r && lb >= r && nfids >= nnz && m.Cols == r && m.Rows >= 0 && len(m.Data) >= m.Rows*r
}

func badFiberShape(r, la, lb, nnz, nfids int, m *tensor.Matrix) {
	panic(fmt.Sprintf("kernels: fiber primitive shapes: rank %d, vectors %d and %d, %d fids for %d leaves, matrix %dx%d over %d values",
		r, la, lb, nfids, nnz, m.Rows, m.Cols, len(m.Data)))
}

// runShapeOK reports whether run r can be walked without Go's checks: ptr
// holds a pointer past every fiber, 0 <= kMin <= kMax <= len(vals) <=
// len(fids), so every leaf window lies in the leaf arrays, and m (f or the
// scatter's output) is a dense r-column matrix.
func runShapeOK(rank int, r fiberRun, m *tensor.Matrix) bool {
	return len(r.ptr) > len(r.mids) && 0 <= r.kMin && r.kMin <= r.kMax && r.kMax <= int64(len(r.vals)) &&
		len(r.vals) <= len(r.fids) && fiberShapeOK(rank, rank, rank, 0, 0, m)
}

func badRunShape(rank, lv int, gm *tensor.Matrix, r fiberRun, m *tensor.Matrix) {
	panic(fmt.Sprintf("kernels: fiber run shapes: rank %d, vector %d, matrices %dx%d over %d and %dx%d over %d values, %d fibers over %d pointers, leaves [%d, %d) of %d values and %d fids",
		rank, lv, gm.Rows, gm.Cols, len(gm.Data), m.Rows, m.Cols, len(m.Data), len(r.mids), len(r.ptr), r.kMin, r.kMax, len(r.vals), len(r.fids)))
}

// nodeShapeOK reports whether node run nr can be walked without Go's
// checks: ptr holds a pointer past every node and 0 <= cMin <= cMax <=
// len(mids), so every fiber window lies in the level's arrays; fm, the
// fibers' matrix, is a dense r-column matrix; and the fibers pass
// runShapeOK with lm, the leaves' matrix.
func nodeShapeOK(rank int, nr *nodeRun, fm, lm *tensor.Matrix) bool {
	return len(nr.ptr) > len(nr.nids) && 0 <= nr.cMin && nr.cMin <= nr.cMax && nr.cMax <= int64(len(nr.fibers.mids)) &&
		fiberShapeOK(rank, rank, rank, 0, 0, fm) && runShapeOK(rank, nr.fibers, lm)
}

func badNodeShape(rank, la, lb int, nm, fm *tensor.Matrix, nr *nodeRun, lm *tensor.Matrix) {
	r := &nr.fibers
	panic(fmt.Sprintf("kernels: node run shapes: rank %d, vectors %d and %d, matrices %dx%d over %d, %dx%d over %d and %dx%d over %d values, %d nodes over %d pointers, fibers [%d, %d) of %d over %d pointers, leaves [%d, %d) of %d values and %d fids",
		rank, la, lb, nm.Rows, nm.Cols, len(nm.Data), fm.Rows, fm.Cols, len(fm.Data), lm.Rows, lm.Cols, len(lm.Data),
		len(nr.nids), len(nr.ptr), nr.cMin, nr.cMax, len(r.mids), len(r.ptr), r.kMin, r.kMax, len(r.vals), len(r.fids)))
}

// badRunID panics naming the first fiber id of r outside [0, mrows) or
// leaf id outside [0, lrows).
func badRunID(r fiberRun, mrows, lrows int) {
	for c, mid := range r.mids {
		if mid < 0 || int(mid) >= mrows {
			//lint:allow hotpath-alloc cold panic path, once per bad fid
			panic(fmt.Sprintf("kernels: fiber id %d out of range [0, %d)", mid, mrows))
		}
		lo, hi := r.window(c)
		checkFids(r.fids[lo:hi], lrows)
	}
	panic("kernels: fiber run flagged an id out of range, but none is")
}

// badNodeID panics naming the first node id of nr outside [0, nmrows), or
// the first fiber id outside [0, mrows) or leaf id outside [0, lrows) of
// the nodes' fibers, node by node in order.
func badNodeID(nr *nodeRun, nmrows, mrows, lrows int) {
	for n, nid := range nr.nids {
		if nid < 0 || int(nid) >= nmrows {
			//lint:allow hotpath-alloc cold panic path, once per bad node id
			panic(fmt.Sprintf("kernels: node id %d out of range [0, %d)", nid, nmrows))
		}
		r := nr.run(n)
		for c, mid := range r.mids {
			if mid < 0 || int(mid) >= mrows {
				//lint:allow hotpath-alloc cold panic path, once per bad fid
				panic(fmt.Sprintf("kernels: fiber id %d out of range [0, %d)", mid, mrows))
			}
			lo, hi := r.window(c)
			checkFids(r.fids[lo:hi], lrows)
		}
	}
	panic("kernels: node run flagged an id out of range, but none is")
}

// badFid panics naming the first of fids outside [0, rows), as Row would
// on the Go path.
func badFid(fids []int32, rows int) {
	checkFids(fids, rows)
	panic("kernels: fiber primitive flagged an id out of range, but none is")
}

// checkFids panics naming the first of fids outside [0, rows).
func checkFids(fids []int32, rows int) {
	for _, id := range fids {
		if id < 0 || int(id) >= rows {
			//lint:allow hotpath-alloc cold panic path, once per bad fid
			panic(fmt.Sprintf("kernels: fiber id %d out of range [0, %d)", id, rows))
		}
	}
}

// simdVecOps returns the AVX2 set and whether this CPU can run it. zero
// stays the Go loop, which already lowers to the runtime's memclr.
func simdVecOps() (vecOps, bool) {
	return vecOps{
		zero:            zero,
		addScaled:       addScaledAVX2,
		hadamardAccum:   hadamardAccumAVX2,
		hadamardInto:    hadamardIntoAVX2,
		fiberSum:        fiberSumAVX2,
		fiberHad:        fiberHadAVX2,
		runHad:          runHadAVX2,
		runOut:          runOutAVX2,
		runScatter:      runScatterAVX2,
		nodeHad:         nodeHadAVX2,
		nodeOut:         nodeOutAVX2,
		nodePushOut:     nodePushOutAVX2,
		nodePushScatter: nodePushScatterAVX2,
	}, cpu.AVX2
}
