// Package kernels implements the MTTKRP kernels at the core of STeF: the
// root-mode downward pass with selective memoization (Algorithms 4 and 5 of
// the paper), the memoized and recomputing kernels for non-root modes
// (Algorithms 6–8), and a dense reference implementation used for testing.
//
// All kernels are parameterised by a sched.Partition, so the same code runs
// under STeF's non-zero-balanced distribution (with boundary-replica
// merging) and under the slice-aligned distribution used by the baselines
// and the ablation study.
//
// Every walk ends in the fiber primitives below: one call per run of
// sibling level d-2 fibers sums their leaves and applies the fold-up or
// push-down that consumes each sum. From order 4 the root and non-root
// walks end one level higher, in one call per level d-4 node that does so
// for each of its level d-3 children, except where a memo needs each
// child's sum; the subtree walks stay on one-level runs. Where the CPU has
// AVX2 they run as assembly (vec_amd64.s), bit-identical to the Go forms
// here: each call runs its column blocks outermost, with whatever rest
// the rank leaves after its 64- and 32-column blocks in one pass whose
// last chunk is masked, a fold-up keeps its node's accumulator in registers for the
// whole node and takes a one-leaf fiber without a leaf loop, no fiber's
// sum is stored, and the read-only index arrays arrive through one
// argument struct (kernelArgs). So the
// run and node forms' child, t and k vectors are scratch: their contents
// on return are unspecified, and no walk reads them. fiberSum's and
// fiberHad's child is their output.
package kernels

import (
	"strconv"

	"stef/internal/cpu"
	"stef/internal/csf"
	"stef/internal/tensor"
)

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

// The fiber primitives below do a whole CSF fiber's work in one call: the
// leaf sum of Algorithms 4–8 together with the fold-up or push-down that
// consumes it. The run forms do it for a run of sibling fibers, the
// children of one level d-3 node, so a walk's innermost loop is one call;
// the two-level forms further down do it for every level d-3 child of one
// level d-4 node.
// The Go forms are exactly the per-row calls they replace, in the same
// order, so they are the oracle the AVX2 forms (vec_amd64.s) are held to
// bit for bit, on every output; those keep each fiber's sum in registers.
// In the one-fiber forms vals and fids are the fiber's leaf window; like
// the rank-vector primitives, their Go forms use the first
// min(len(vals), len(fids)) leaves.

// fiberSum computes child = Σₖ vals[k]·f.Row(fids[k]), accumulated from +0
// in k order.
func fiberSum(child, vals []float64, fids []int32, f *tensor.Matrix) {
	n := min(len(vals), len(fids))
	vals, fids = vals[:n:n], fids[:n:n]
	zero(child)
	for k, v := range vals {
		addScaled(child, v, f.Row(int(fids[k]))) //gate:allow bounds factor row addressed by a stored fiber id, data-dependent
	}
}

// fiberHad computes child as fiberSum does, then dst += child ⊙ g. An empty
// leaf window still folds +0 ⊙ g into dst.
func fiberHad(dst, child, g, vals []float64, fids []int32, f *tensor.Matrix) {
	fiberSum(child, vals, fids, f)
	hadamardAccum(dst, child, g)
}

// fiberRun is a run of sibling fibers at level d-2: their fiber ids mids,
// their leaf pointers ptr (one more than mids) and the tree's leaf values
// and fiber ids. Fiber c's leaf window is [ptr[c], ptr[c+1]) clamped to
// [kMin, kMax), the thread's leaves, and never reversed.
type fiberRun struct {
	mids       []int32
	ptr        []int64
	kMin, kMax int64
	vals       []float64
	fids       []int32
}

// runOf returns the run of level-l fibers [lo, hi), whose children are
// the tree's leaves (l+1 is the last level), with windows clamped to
// [kMin, kMax).
func runOf(tree *csf.Tree, l int, lo, hi, kMin, kMax int64) fiberRun {
	return fiberRun{
		mids: tree.FidLevel(l)[lo:hi],
		ptr:  tree.PtrLevel(l)[lo : hi+1],
		kMin: kMin, kMax: kMax,
		vals: tree.ValsLevel(),
		fids: tree.FidLevel(l + 1),
	}
}

// window returns fiber c's clamped leaf window.
func (r *fiberRun) window(c int) (lo, hi int64) {
	lo = max(r.ptr[c], r.kMin)
	return lo, max(lo, min(r.ptr[c+1], r.kMax))
}

// runHad folds every fiber of r into dst: for each fiber c in order,
// fiberHad(dst, child, gm.Row(mids[c]), c's leaves, f).
func runHad(dst, child []float64, gm *tensor.Matrix, r fiberRun, f *tensor.Matrix) {
	for c, mid := range r.mids {
		lo, hi := r.window(c)                                                   //gate:allow bounds fiber c+1's leaf pointer; the run holds one more pointer than fibers
		fiberHad(dst, child, gm.Row(int(mid)), r.vals[lo:hi], r.fids[lo:hi], f) //gate:allow bounds fiber row and leaf window addressed by stored ids and pointers, data-dependent
	}
}

// runOut folds every fiber of r into its own output row: for each fiber c
// in order, fiberHad(out.Row(mids[c]), child, g, c's leaves, f).
func runOut(out *tensor.Matrix, child, g []float64, r fiberRun, f *tensor.Matrix) {
	for c, mid := range r.mids {
		lo, hi := r.window(c)                                                  //gate:allow bounds fiber c+1's leaf pointer; the run holds one more pointer than fibers
		fiberHad(out.Row(int(mid)), child, g, r.vals[lo:hi], r.fids[lo:hi], f) //gate:allow bounds output row and leaf window addressed by stored ids and pointers, data-dependent
	}
}

// runScatter pushes every fiber of r down to its leaves: for each fiber c
// in order, k = a ⊙ gm.Row(mids[c]), then vals[j]·k is added into row
// fids[j] of out, leaf by leaf, so a row repeated in the run is updated in
// leaf order.
func runScatter(out *tensor.Matrix, k, a []float64, gm *tensor.Matrix, r fiberRun) {
	for c, mid := range r.mids {
		lo, hi := r.window(c)                //gate:allow bounds fiber c+1's leaf pointer; the run holds one more pointer than fibers
		hadamardInto(k, a, gm.Row(int(mid))) //gate:allow bounds fiber row addressed by a stored fiber id, data-dependent
		for j := lo; j < hi; j++ {
			addScaled(out.Row(int(r.fids[j])), r.vals[j], k) //gate:allow bounds leaf values and output rows addressed by stored fiber ids, data-dependent
		}
	}
}

// The two-level run forms below take one level d-4 node's whole share of
// the walk: its run of level d-3 children, each with its own run of level
// d-2 fibers. Each sums a child's fibers exactly as the one-level forms
// do, then uses the child's result in place: nodeHad folds it into the
// parent's accumulator, nodeOut adds it, times k, into the child's output
// row, and nodePushOut and nodePushScatter push k_n = a ⊙ g[n] down to
// the fibers' output rows or to the leaf scatter. The Go forms are the
// one-level calls the walks made per child, in the same order.

// nodeRun is a run of sibling level d-3 nodes: their ids nids and their
// fiber pointers ptr (one more than nids). fibers is the whole level d-2
// below them, its mids and ptr indexed by fiber number, with the leaf
// clamp of the thread. Node n's fibers are [ptr[n], ptr[n+1]) clamped to
// [cMin, cMax), the thread's level d-2 range, and never reversed.
type nodeRun struct {
	nids       []int32
	ptr        []int64
	cMin, cMax int64
	fibers     fiberRun
}

// run returns node n's run of level d-2 fibers.
func (nr *nodeRun) run(n int) fiberRun {
	lo := max(nr.ptr[n], nr.cMin)
	hi := max(lo, min(nr.ptr[n+1], nr.cMax))
	r := nr.fibers
	r.mids, r.ptr = r.mids[lo:hi], r.ptr[lo:hi+1]
	return r
}

// nodeHad folds every node of nr into dst: for each node n in order,
// t = +0, runHad(t, child, fm, n's fibers, f), then dst += t ⊙
// gm.Row(nids[n]). An empty node still folds +0 ⊙ g into dst.
func nodeHad(dst, t, child []float64, gm, fm *tensor.Matrix, nr nodeRun, f *tensor.Matrix) {
	for n, nid := range nr.nids {
		zero(t)
		runHad(t, child, fm, nr.run(n), f)      //gate:allow bounds node n's fiber window from the node pointers, data-dependent
		hadamardAccum(dst, t, gm.Row(int(nid))) //gate:allow bounds node row addressed by a stored fiber id, data-dependent
	}
}

// nodeOut adds every node of nr into its own output row: for each node n
// in order, t = +0, runHad(t, child, fm, n's fibers, f), then
// out.Row(nids[n]) += k ⊙ t.
func nodeOut(out *tensor.Matrix, t, child, k []float64, fm *tensor.Matrix, nr nodeRun, f *tensor.Matrix) {
	for n, nid := range nr.nids {
		zero(t)
		runHad(t, child, fm, nr.run(n), f)     //gate:allow bounds node n's fiber window from the node pointers, data-dependent
		hadamardAccum(out.Row(int(nid)), k, t) //gate:allow bounds output row addressed by a stored fiber id, data-dependent
	}
}

// nodePushOut pushes every node of nr down to its fibers' output rows: for
// each node n in order, kn = a ⊙ gm.Row(nids[n]), then runOut(out, child,
// kn, n's fibers, f).
func nodePushOut(out *tensor.Matrix, kn, child, a []float64, gm *tensor.Matrix, nr nodeRun, f *tensor.Matrix) {
	for n, nid := range nr.nids {
		hadamardInto(kn, a, gm.Row(int(nid))) //gate:allow bounds node row addressed by a stored fiber id, data-dependent
		runOut(out, child, kn, nr.run(n), f)
	}
}

// nodePushScatter pushes every node of nr down to its leaves: for each
// node n in order, kn = a ⊙ gm.Row(nids[n]), then runScatter(out, kf, kn,
// fm, n's fibers).
func nodePushScatter(out *tensor.Matrix, kf, kn, a []float64, gm, fm *tensor.Matrix, nr nodeRun) {
	for n, nid := range nr.nids {
		hadamardInto(kn, a, gm.Row(int(nid))) //gate:allow bounds node row addressed by a stored fiber id, data-dependent
		runScatter(out, kf, kn, fm, nr.run(n))
	}
}

// vecOps bundles the rank-vector and fiber primitives. A Scratch or OutBuf
// picks its set once at construction via opsFor, and the kernels call
// through it, so a fiber, a run or a node run pays one indirect call and
// the selection never appears in a loop.
type vecOps struct {
	zero            func(v []float64)
	addScaled       func(dst []float64, s float64, src []float64)
	hadamardAccum   func(dst, a, b []float64)
	hadamardInto    func(dst, a, b []float64)
	fiberSum        func(child, vals []float64, fids []int32, f *tensor.Matrix)
	fiberHad        func(dst, child, g, vals []float64, fids []int32, f *tensor.Matrix)
	runHad          func(dst, child []float64, gm *tensor.Matrix, r fiberRun, f *tensor.Matrix)
	runOut          func(out *tensor.Matrix, child, g []float64, r fiberRun, f *tensor.Matrix)
	runScatter      func(out *tensor.Matrix, k, a []float64, gm *tensor.Matrix, r fiberRun)
	nodeHad         func(dst, t, child []float64, gm, fm *tensor.Matrix, nr nodeRun, f *tensor.Matrix)
	nodeOut         func(out *tensor.Matrix, t, child, k []float64, fm *tensor.Matrix, nr nodeRun, f *tensor.Matrix)
	nodePushOut     func(out *tensor.Matrix, kn, child, a []float64, gm *tensor.Matrix, nr nodeRun, f *tensor.Matrix)
	nodePushScatter func(out *tensor.Matrix, kf, kn, a []float64, gm, fm *tensor.Matrix, nr nodeRun)
}

// genericVecOps is the portable set: the Go loops above. It is also the
// race-build set and the oracle the SIMD set is tested against.
var genericVecOps = vecOps{
	zero:            zero,
	addScaled:       addScaled,
	hadamardAccum:   hadamardAccum,
	hadamardInto:    hadamardInto,
	fiberSum:        fiberSum,
	fiberHad:        fiberHad,
	runHad:          runHad,
	runOut:          runOut,
	runScatter:      runScatter,
	nodeHad:         nodeHad,
	nodeOut:         nodeOut,
	nodePushOut:     nodePushOut,
	nodePushScatter: nodePushScatter,
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

// KernelPath names, for Describe, how deep the fiber runs reach in the
// walks that read the leaves of an order-d tree planned with memo set
// save, and the primitive set opsFor selects in this build on this CPU,
// with the reason when it is the Go forms. From order 4 the walks end in
// two-level runs, except a root walk with a memo at level d-3 or d-2,
// which needs each child's sum; order 3 ends in one-level runs.
func KernelPath(d int, save []bool) (runs, prims string) {
	runs = "one-level fiber runs"
	if d >= 4 {
		runs = "two-level fiber runs"
		lo, hi := strconv.Itoa(d-3), strconv.Itoa(d-2)
		switch saveLo, saveHi := d-3 < len(save) && save[d-3], d-2 < len(save) && save[d-2]; {
		case saveLo && saveHi:
			runs += ", one-level in the root walk (memos at levels " + lo + " and " + hi + ")"
		case saveLo:
			runs += ", one-level in the root walk (memo at level " + lo + ")"
		case saveHi:
			runs += ", one-level in the root walk (memo at level " + hi + ")"
		}
	}
	_, ok := simdVecOps()
	switch {
	case ok && !cpu.RaceBuild:
		return runs, "AVX2 fiber primitives"
	case ok:
		return runs, "Go forms (race build)"
	}
	return runs, "Go forms (no AVX2)"
}
