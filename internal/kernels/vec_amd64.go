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

// fiberRunAsm sums, for each fiber c of a run, child = Σₖ vals[k]·f[fids[k]]
// over the rows×len(child) matrix f, for the leaves k in [ptr[c],
// ptr[c+1]) clamped to [kmin, kmax). With fold it then folds the sum into
// v with row mids[c] of the mrows×len(child) matrix m, or, with rowDst,
// into that row with v. It reports false when a fid or a mid is out of
// range; the caller guarantees the rest (see runShapeOK).
//
//asm:writes v child m
//go:noescape
func fiberRunAsm(v, child, m []float64, mrows int, mids []int32, ptr []int64, kmin, kmax int, vals []float64, fids []int32, f []float64, rows int, rowDst, fold bool) (ok bool)

// fiberRunScatterAsm computes, for each fiber c of a run clamped as in
// fiberRunAsm, k = a ⊙ row mids[c] of gm, then adds vals[j]·k into row
// fids[j] of the orows×len(k) matrix out, leaf by leaf. It reports false
// when a fid or a mid is out of range; no row outside out is written.
//
//asm:writes out k
//go:noescape
func fiberRunScatterAsm(out []float64, orows int, k, a, gm []float64, grows int, mids []int32, ptr []int64, kmin, kmax int, vals []float64, fids []int32) (ok bool)

// The fiber wrappers check what the assembly relies on: the rank R is
// len(child) or len(k), every other rank vector holds at least R values,
// the matrix stride is R and its data covers every row. The assembly
// checks each fid itself, since it indexes rows without Go's bounds
// checks, and the wrapper panics on its flag as Row would.

// fiberSumAVX2 is the AVX2 form of fiberSum: a run of one fiber, not
// folded.
func fiberSumAVX2(child, vals []float64, fids []int32, f *tensor.Matrix) {
	if !fiberShapeOK(len(child), len(child), len(child), len(vals), len(fids), f) {
		badFiberShape(len(child), len(child), len(child), len(vals), len(fids), f)
	}
	mids, ptr := [1]int32{}, [2]int64{0, int64(len(vals))}
	if !fiberRunAsm(nil, child, child, 1, mids[:], ptr[:], 0, len(vals), vals, fids, f.Data, f.Rows, false, false) {
		badFid(fids[:len(vals)], f.Rows)
	}
}

// fiberHadAVX2 is the AVX2 form of fiberHad: a run of one fiber whose g is
// the one row of a 1×R matrix.
func fiberHadAVX2(dst, child, g, vals []float64, fids []int32, f *tensor.Matrix) {
	if !fiberShapeOK(len(child), len(dst), len(g), len(vals), len(fids), f) {
		badFiberShape(len(child), len(dst), len(g), len(vals), len(fids), f)
	}
	mids, ptr := [1]int32{}, [2]int64{0, int64(len(vals))}
	if !fiberRunAsm(dst, child, g, 1, mids[:], ptr[:], 0, len(vals), vals, fids, f.Data, f.Rows, false, true) {
		badFid(fids[:len(vals)], f.Rows)
	}
}

// runHadAVX2 is the AVX2 form of runHad.
func runHadAVX2(dst, child []float64, gm *tensor.Matrix, r fiberRun, f *tensor.Matrix) {
	if !fiberShapeOK(len(child), len(dst), len(child), 0, 0, gm) || !runShapeOK(len(child), r, f) {
		badRunShape(len(child), len(dst), gm, r, f)
	}
	if !fiberRunAsm(dst, child, gm.Data, gm.Rows, r.mids, r.ptr, int(r.kMin), int(r.kMax), r.vals, r.fids, f.Data, f.Rows, false, true) {
		badRunID(r, gm.Rows, f.Rows)
	}
}

// runOutAVX2 is the AVX2 form of runOut.
func runOutAVX2(out *tensor.Matrix, child, g []float64, r fiberRun, f *tensor.Matrix) {
	if !fiberShapeOK(len(child), len(g), len(child), 0, 0, out) || !runShapeOK(len(child), r, f) {
		badRunShape(len(child), len(g), out, r, f)
	}
	if !fiberRunAsm(g, child, out.Data, out.Rows, r.mids, r.ptr, int(r.kMin), int(r.kMax), r.vals, r.fids, f.Data, f.Rows, true, true) {
		badRunID(r, out.Rows, f.Rows)
	}
}

// runScatterAVX2 is the AVX2 form of runScatter.
func runScatterAVX2(out *tensor.Matrix, k, a []float64, gm *tensor.Matrix, r fiberRun) {
	if !fiberShapeOK(len(k), len(a), len(k), 0, 0, gm) || !runShapeOK(len(k), r, out) {
		badRunShape(len(k), len(a), gm, r, out)
	}
	if !fiberRunScatterAsm(out.Data, out.Rows, k, a, gm.Data, gm.Rows, r.mids, r.ptr, int(r.kMin), int(r.kMax), r.vals, r.fids) {
		badRunID(r, gm.Rows, out.Rows)
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
		zero:          zero,
		addScaled:     addScaledAVX2,
		hadamardAccum: hadamardAccumAVX2,
		hadamardInto:  hadamardIntoAVX2,
		fiberSum:      fiberSumAVX2,
		fiberHad:      fiberHadAVX2,
		runHad:        runHadAVX2,
		runOut:        runOutAVX2,
		runScatter:    runScatterAVX2,
	}, cpu.AVX2
}
