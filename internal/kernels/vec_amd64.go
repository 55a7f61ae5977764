//go:build amd64

package kernels

import (
	"fmt"
	"math"

	"stef/internal/cpu"
	"stef/internal/tensor"
)

// Go declarations of the AVX2 primitives in vec_amd64.s. The .s file is
// assembled in every amd64 build, race builds included, so the contract
// tests reach it everywhere; only opsFor's selection skips it under -race.
// Each //asm:writes line names the arguments a fiber kernel stores into,
// for the write-disjoint analyzer; everything else a kernel reads arrives
// through a kernelArgs.

//go:noescape
func addScaledAVX2(dst []float64, s float64, src []float64)

//go:noescape
func hadamardAccumAVX2(dst, a, b []float64)

//go:noescape
func hadamardIntoAVX2(dst, a, b []float64)

// kernelArgs is the read-only side of one run or node-run kernel call,
// which the assembly reads through one pointer at the offsets go_asm.h
// gives: the nodes' ids and fiber pointers with the fiber window, the
// fibers' ids and leaf pointers with the leaf window, and the leaf values
// and ids (nodeRun); the rank; the row counts of the matrices the node,
// fiber and leaf ids index; and the data of the matrices and the vector
// the call reads but does not write. A field the call has no use for, or
// writes, is left zero.
type kernelArgs struct {
	nodeRun
	rank                int
	nrows, frows, lrows int
	nm, fm, lm, vec     []float64
}

// oneNode and wholeRun make a run of fibers a node run of one node: the
// run forms read no node id, and the node's pointers clamp to the whole
// fiber window [0, len(mids)).
var (
	oneNode  [1]int32
	wholeRun = [2]int64{math.MinInt64, math.MaxInt64}
)

// runArgs returns run r as a node run of one node.
func runArgs(r fiberRun) nodeRun {
	return nodeRun{nids: oneNode[:], ptr: wholeRun[:], cMax: int64(len(r.mids)), fibers: r}
}

// foldAsm runs the fold-up forms (runHad, nodeHad, nodeOut) over a's
// nodes, as mode says. For each node n, the accumulator t starts as v
// (foldRun, whose one node is the whole run) or as +0 (foldHad, foldOut);
// each of the node's fibers c adds child ⊙ row mids[c] of a.fm into it,
// where child = Σₖ vals[k]·row fids[k] of a.lm over the fiber's leaves,
// summed from +0. The node then ends: foldRun stores t in v, foldHad adds
// t ⊙ row nids[n] of a.nm into v, foldOut adds a.vec ⊙ t into row nids[n]
// of v, an a.nrows×rank matrix. It reports false when an id is out of
// range; the wrappers guarantee the rest (see nodeShapeOK).
//
//asm:writes v
//go:noescape
func foldAsm(a *kernelArgs, v []float64, mode uint8) (ok bool)

// The modes of foldAsm.
const (
	foldRun uint8 = iota // runHad: one node, t is dst itself
	foldHad              // nodeHad: dst += t ⊙ h
	foldOut              // nodeOut: h += k ⊙ t
)

// pushAsm runs the push-out forms (runOut, nodePushOut) over a's nodes.
// With push, each node n first sets t = a.vec ⊙ row nids[n] of a.nm and w
// = t; without, w = a.vec. Each of the node's fibers c then adds child ⊙ w
// into row mids[c] of out, an a.frows×rank matrix, with child summed as
// in foldAsm. It reports false when an id is out of range.
//
//asm:writes out t
//go:noescape
func pushAsm(a *kernelArgs, out, t []float64, push bool) (ok bool)

// scatterAsm runs the scatter forms (runScatter, nodePushScatter) over
// a's nodes, with t and w as in pushAsm: for each fiber c, k = w ⊙ row
// mids[c] of a.fm, then vals[j]·k is added into row fids[j] of out, an
// a.lrows×rank matrix, leaf by leaf, so a row repeated in the run is
// updated in leaf order. It reports false when an id is out of range.
//
//asm:writes out t
//go:noescape
func scatterAsm(a *kernelArgs, out, t []float64, push bool) (ok bool)

// fiberAsm computes child = Σₖ vals[k]·f[fids[k]] over the
// rows×len(child) matrix f, summed from +0, and with fold then adds child
// ⊙ g into dst. It reports false when a leaf id is out of range.
//
//asm:writes dst child
//go:noescape
func fiberAsm(dst, child, g, vals []float64, fids []int32, f []float64, rows int, fold bool) (ok bool)

// The fiber wrappers check what the assembly relies on: the rank R is
// len(child) or len(k), every other rank vector holds at least R values,
// each matrix's stride is R and its data covers every row, and every
// window lies in its arrays. The assembly checks each id itself, since it
// indexes rows without Go's bounds checks, and the wrapper panics on its
// flag as Row would. The run forms are a node run of one node (runArgs).
// Scratch vectors (child, t and k of the run and node forms) are checked
// as before, though the assembly keeps them in registers.

// fiberSumAVX2 is the AVX2 form of fiberSum.
func fiberSumAVX2(child, vals []float64, fids []int32, f *tensor.Matrix) {
	if !fiberShapeOK(len(child), len(child), len(child), len(vals), len(fids), f) {
		badFiberShape(len(child), len(child), len(child), len(vals), len(fids), f)
	}
	if !fiberAsm(nil, child, nil, vals, fids, f.Data, f.Rows, false) {
		badFid(fids[:len(vals)], f.Rows)
	}
}

// fiberHadAVX2 is the AVX2 form of fiberHad.
func fiberHadAVX2(dst, child, g, vals []float64, fids []int32, f *tensor.Matrix) {
	if !fiberShapeOK(len(child), len(dst), len(g), len(vals), len(fids), f) {
		badFiberShape(len(child), len(dst), len(g), len(vals), len(fids), f)
	}
	if !fiberAsm(dst, child, g, vals, fids, f.Data, f.Rows, true) {
		badFid(fids[:len(vals)], f.Rows)
	}
}

// runHadAVX2 is the AVX2 form of runHad.
func runHadAVX2(dst, child []float64, gm *tensor.Matrix, r fiberRun, f *tensor.Matrix) {
	if !fiberShapeOK(len(child), len(dst), len(child), 0, 0, gm) || !runShapeOK(len(child), r, f) {
		badRunShape(len(child), len(dst), gm, r, f)
	}
	a := kernelArgs{nodeRun: runArgs(r), rank: len(child), frows: gm.Rows, lrows: f.Rows, fm: gm.Data, lm: f.Data}
	if !foldAsm(&a, dst, foldRun) {
		badRunID(r, gm.Rows, f.Rows)
	}
}

// runOutAVX2 is the AVX2 form of runOut.
func runOutAVX2(out *tensor.Matrix, child, g []float64, r fiberRun, f *tensor.Matrix) {
	if !fiberShapeOK(len(child), len(g), len(child), 0, 0, out) || !runShapeOK(len(child), r, f) {
		badRunShape(len(child), len(g), out, r, f)
	}
	a := kernelArgs{nodeRun: runArgs(r), rank: len(child), frows: out.Rows, lrows: f.Rows, lm: f.Data, vec: g}
	if !pushAsm(&a, out.Data, nil, false) {
		badRunID(r, out.Rows, f.Rows)
	}
}

// runScatterAVX2 is the AVX2 form of runScatter.
func runScatterAVX2(out *tensor.Matrix, k, a []float64, gm *tensor.Matrix, r fiberRun) {
	if !fiberShapeOK(len(k), len(a), len(k), 0, 0, gm) || !runShapeOK(len(k), r, out) {
		badRunShape(len(k), len(a), gm, r, out)
	}
	args := kernelArgs{nodeRun: runArgs(r), rank: len(k), frows: gm.Rows, lrows: out.Rows, fm: gm.Data, vec: a}
	if !scatterAsm(&args, out.Data, nil, false) {
		badRunID(r, gm.Rows, out.Rows)
	}
}

// nodeHadAVX2 is the AVX2 form of nodeHad.
func nodeHadAVX2(dst, t, child []float64, gm, fm *tensor.Matrix, nr nodeRun, f *tensor.Matrix) {
	r := len(child)
	if !fiberShapeOK(r, len(dst), len(t), 0, 0, gm) || !nodeShapeOK(r, &nr, fm, f) {
		badNodeShape(r, len(dst), len(t), gm, fm, &nr, f)
	}
	a := kernelArgs{nodeRun: nr, rank: r, nrows: gm.Rows, frows: fm.Rows, lrows: f.Rows, nm: gm.Data, fm: fm.Data, lm: f.Data}
	if !foldAsm(&a, dst, foldHad) {
		badNodeID(&nr, gm.Rows, fm.Rows, f.Rows)
	}
}

// nodeOutAVX2 is the AVX2 form of nodeOut.
func nodeOutAVX2(out *tensor.Matrix, t, child, k []float64, fm *tensor.Matrix, nr nodeRun, f *tensor.Matrix) {
	r := len(child)
	if !fiberShapeOK(r, len(k), len(t), 0, 0, out) || !nodeShapeOK(r, &nr, fm, f) {
		badNodeShape(r, len(k), len(t), out, fm, &nr, f)
	}
	a := kernelArgs{nodeRun: nr, rank: r, nrows: out.Rows, frows: fm.Rows, lrows: f.Rows, fm: fm.Data, lm: f.Data, vec: k}
	if !foldAsm(&a, out.Data, foldOut) {
		badNodeID(&nr, out.Rows, fm.Rows, f.Rows)
	}
}

// nodePushOutAVX2 is the AVX2 form of nodePushOut.
func nodePushOutAVX2(out *tensor.Matrix, kn, child, a []float64, gm *tensor.Matrix, nr nodeRun, f *tensor.Matrix) {
	r := len(child)
	if !fiberShapeOK(r, len(a), len(kn), 0, 0, gm) || !nodeShapeOK(r, &nr, out, f) {
		badNodeShape(r, len(a), len(kn), gm, out, &nr, f)
	}
	args := kernelArgs{nodeRun: nr, rank: r, nrows: gm.Rows, frows: out.Rows, lrows: f.Rows, nm: gm.Data, lm: f.Data, vec: a}
	if !pushAsm(&args, out.Data, kn, true) {
		badNodeID(&nr, gm.Rows, out.Rows, f.Rows)
	}
}

// nodePushScatterAVX2 is the AVX2 form of nodePushScatter.
func nodePushScatterAVX2(out *tensor.Matrix, kf, kn, a []float64, gm, fm *tensor.Matrix, nr nodeRun) {
	r := len(kf)
	if !fiberShapeOK(r, len(a), len(kn), 0, 0, gm) || !nodeShapeOK(r, &nr, fm, out) {
		badNodeShape(r, len(a), len(kn), gm, fm, &nr, out)
	}
	args := kernelArgs{nodeRun: nr, rank: r, nrows: gm.Rows, frows: fm.Rows, lrows: out.Rows, nm: gm.Data, fm: fm.Data, vec: a}
	if !scatterAsm(&args, out.Data, kn, true) {
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
