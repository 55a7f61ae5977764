// Package kernels implements the MTTKRP kernels at the core of STeF: the
// root-mode downward pass with selective memoization (Algorithms 4 and 5 of
// the paper), the memoized and recomputing kernels for non-root modes
// (Algorithms 6–8), and a dense reference implementation used for testing.
//
// All kernels are parameterised by a sched.Partition, so the same code runs
// under STeF's non-zero-balanced distribution (with boundary-replica
// merging) and under the slice-aligned distribution used by the baselines
// and the ablation study.
package kernels

import "stef/internal/cpu"

// zero clears v. The range-over-slice form is recognised by the compiler
// and lowered to a memclr, with no per-element bounds checks.
func zero(v []float64) {
	for i := range v {
		v[i] = 0
	}
}

// The rank-vector primitives below are unrolled 8-wide: R is almost always
// a multiple of 8 (the paper evaluates 32 and 64), and the independent
// chains give the superscalar core ILP that a simple range loop lacks.
//
// Bounds-check story (enforced by `steflint -gates`): every operand is
// re-sliced to s[:n:n] with n = min of the lengths, pinning len and cap to
// the same SSA value, so the compiler's prove pass eliminates all but the
// first checked access per loop — the surviving check on the first slice of
// the 8-wide block dominates the remaining seven elements of all operands.
// prove cannot remove that first check because the `i+8 <= n` loop
// condition bounds the expression i+8 rather than the induction variable i
// itself, leaving i's non-negativity unproven until one unsigned bounds
// check has executed; those irreducible sites carry //gate:allow below.
// Net cost: one check per 8 elements plus one per tail element, measured
// faster than the previous 4-wide form (see EXPERIMENTS.md).
//
// All primitives operate on the first min(len...) elements of their
// operands; the kernels always pass equal-length rank-R vectors.

// addScaled computes dst += s*src.
func addScaled(dst []float64, s float64, src []float64) {
	n := min(len(dst), len(src))
	d, v := dst[:n:n], src[:n:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		dp := d[i : i+8 : i+8] //gate:allow bounds first access eats the block's one irreducible check; dominates vp and dp[0..7]
		vp := v[i : i+8 : i+8]
		dp[0] += s * vp[0]
		dp[1] += s * vp[1]
		dp[2] += s * vp[2]
		dp[3] += s * vp[3]
		dp[4] += s * vp[4]
		dp[5] += s * vp[5]
		dp[6] += s * vp[6]
		dp[7] += s * vp[7]
	}
	for ; i < n; i++ {
		d[i] += s * v[i] //gate:allow bounds tail loop, at most 7 iterations; i's sign is unprovable past the unrolled loop
	}
}

// hadamardAccum computes dst += a ⊙ b.
func hadamardAccum(dst, a, b []float64) {
	n := min(len(dst), len(a), len(b))
	d, x, y := dst[:n:n], a[:n:n], b[:n:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		dp := d[i : i+8 : i+8] //gate:allow bounds first access eats the block's one irreducible check; dominates xp, yp and dp[0..7]
		xp := x[i : i+8 : i+8]
		yp := y[i : i+8 : i+8]
		dp[0] += xp[0] * yp[0]
		dp[1] += xp[1] * yp[1]
		dp[2] += xp[2] * yp[2]
		dp[3] += xp[3] * yp[3]
		dp[4] += xp[4] * yp[4]
		dp[5] += xp[5] * yp[5]
		dp[6] += xp[6] * yp[6]
		dp[7] += xp[7] * yp[7]
	}
	for ; i < n; i++ {
		d[i] += x[i] * y[i] //gate:allow bounds tail loop, at most 7 iterations; i's sign is unprovable past the unrolled loop
	}
}

// hadamardInto computes dst = a ⊙ b.
func hadamardInto(dst, a, b []float64) {
	n := min(len(dst), len(a), len(b))
	d, x, y := dst[:n:n], a[:n:n], b[:n:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		dp := d[i : i+8 : i+8] //gate:allow bounds first access eats the block's one irreducible check; dominates xp, yp and dp[0..7]
		xp := x[i : i+8 : i+8]
		yp := y[i : i+8 : i+8]
		dp[0] = xp[0] * yp[0]
		dp[1] = xp[1] * yp[1]
		dp[2] = xp[2] * yp[2]
		dp[3] = xp[3] * yp[3]
		dp[4] = xp[4] * yp[4]
		dp[5] = xp[5] * yp[5]
		dp[6] = xp[6] * yp[6]
		dp[7] = xp[7] * yp[7]
	}
	for ; i < n; i++ {
		d[i] = x[i] * y[i] //gate:allow bounds tail loop, at most 7 iterations; i's sign is unprovable past the unrolled loop
	}
}

// vecOps bundles the four rank-vector primitives. A Scratch or OutBuf
// picks its set once at construction via opsFor; kernels rebind the
// primitive names to the chosen set at the top of each thread body, so the
// per-nonzero path pays one indirect call and the selection never appears
// in a loop.
type vecOps struct {
	zero          func(v []float64)
	addScaled     func(dst []float64, s float64, src []float64)
	hadamardAccum func(dst, a, b []float64)
	hadamardInto  func(dst, a, b []float64)
}

// genericVecOps is the portable set: the Go loops above. It is also the
// race-build set and the oracle the SIMD set is tested against.
var genericVecOps = vecOps{
	zero:          zero,
	addScaled:     addScaled,
	hadamardAccum: hadamardAccum,
	hadamardInto:  hadamardInto,
}

// opsFor selects the primitive set for a new Scratch or OutBuf, at any
// rank: the SIMD set (vec_amd64.s) where the CPU runs it and the build is
// not a race build, the generic set otherwise. The two give bit-identical
// results at every length, so the choice never changes a solve.
func opsFor() vecOps {
	if ops, ok := simdVecOps(); ok && !cpu.RaceBuild {
		return ops
	}
	return genericVecOps
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
