package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"stef/internal/cpu"
	"stef/internal/csf"
	"stef/internal/sched"
	"stef/internal/tensor"
)

// The ref* loops are the plainest possible forms: the semantic ground truth
// both the unrolled generic primitives and the SIMD set must reproduce bit
// for bit (every element is one independent multiply then one add, so no
// reassociation can change the rounding).
func refAddScaled(dst []float64, s float64, src []float64) {
	for i := range dst {
		dst[i] += s * src[i]
	}
}

func refHadamardAccum(dst, a, b []float64) {
	for i := range dst {
		dst[i] += a[i] * b[i]
	}
}

func refHadamardInto(dst, a, b []float64) {
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

// randVec fills a length-n vector with normal variates.
func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// edgeValues are the IEEE cases a vector lane could round, flush or
// propagate differently from the scalar unit.
var edgeValues = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1030, -0x1.8p-1040, // subnormals
	0x1p-1022, // the smallest normal
	math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
	1, -1,
}

// edgeVec fills a length-n vector with normal variates, a quarter of them
// replaced by edge values.
func edgeVec(rng *rand.Rand, n int) []float64 {
	v := randVec(rng, n)
	for i := range v {
		if rng.Intn(4) == 0 {
			v[i] = edgeValues[rng.Intn(len(edgeValues))]
		}
	}
	return v
}

// bitEqual requires identical bits, except that any NaN matches any NaN:
// the lanes and the scalar unit may propagate different NaN payloads.
func bitEqual(t *testing.T, got, want []float64, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: element %d = %x, want %x", ctx, i, got[i], want[i])
		}
	}
}

// simdOrSkip returns the SIMD set, skipping the test where there is none.
func simdOrSkip(t *testing.T) vecOps {
	t.Helper()
	ops, ok := simdVecOps()
	if !ok {
		t.Skipf("no SIMD rank-vector set on this CPU (GOARCH=%s, or no AVX2)", runtime.GOARCH)
	}
	return ops
}

// TestSIMDMatchesReference holds the SIMD set to the reference loops bit
// for bit at every length from 0 to 140 (every 16-, 4- and scalar-tail
// split), at start offsets 0–3 into a larger array, on inputs that mix
// normal values with ±0, subnormals, ±Inf and NaN. Elements before the
// slice and the guard elements past len(dst) must stay untouched, and the
// inputs must not be written.
func TestSIMDMatchesReference(t *testing.T) {
	simd := simdOrSkip(t)
	const guard = 5
	for n := 0; n <= 140; n++ {
		for off := 0; off < 4; off++ {
			rng := rand.New(rand.NewSource(int64(n*4 + off)))
			size := off + n + guard
			dst, a, b := edgeVec(rng, size), edgeVec(rng, size), edgeVec(rng, size)
			a0, b0 := slices.Clone(a), slices.Clone(b)
			s := edgeVec(rng, 1)[0]
			win := func(v []float64) []float64 { return v[off : off+n] }
			ctx := fmt.Sprintf("n=%d off=%d", n, off)

			got, want := slices.Clone(dst), slices.Clone(dst)
			simd.addScaled(win(got), s, win(a))
			refAddScaled(win(want), s, win(a))
			bitEqual(t, got, want, ctx+" addScaled")

			got, want = slices.Clone(dst), slices.Clone(dst)
			simd.hadamardAccum(win(got), win(a), win(b))
			refHadamardAccum(win(want), win(a), win(b))
			bitEqual(t, got, want, ctx+" hadamardAccum")

			got, want = slices.Clone(dst), slices.Clone(dst)
			simd.hadamardInto(win(got), win(a), win(b))
			refHadamardInto(win(want), win(a), win(b))
			bitEqual(t, got, want, ctx+" hadamardInto")

			bitEqual(t, a, a0, ctx+" input a")
			bitEqual(t, b, b0, ctx+" input b")
		}
	}
}

// TestSIMDMinOfLengths pins the first-min(len...) contract on operands of
// different lengths: only the first min elements of dst change, and they
// match the reference on the common prefix.
func TestSIMDMinOfLengths(t *testing.T) {
	simd := simdOrSkip(t)
	lens := []int{0, 1, 3, 4, 5, 15, 16, 17, 20, 33}
	rng := rand.New(rand.NewSource(1))
	for _, ld := range lens {
		for _, la := range lens {
			dst, a := edgeVec(rng, ld), edgeVec(rng, la)
			m := min(ld, la)
			got, want := slices.Clone(dst), slices.Clone(dst)
			s := rng.NormFloat64()
			simd.addScaled(got, s, a)
			refAddScaled(want[:m], s, a[:m])
			bitEqual(t, got, want, fmt.Sprintf("len dst=%d src=%d addScaled", ld, la))

			for _, lb := range lens {
				b := edgeVec(rng, lb)
				m := min(ld, la, lb)
				ctx := fmt.Sprintf("len dst=%d a=%d b=%d", ld, la, lb)
				got, want := slices.Clone(dst), slices.Clone(dst)
				simd.hadamardAccum(got, a, b)
				refHadamardAccum(want[:m], a[:m], b[:m])
				bitEqual(t, got, want, ctx+" hadamardAccum")

				got, want = slices.Clone(dst), slices.Clone(dst)
				simd.hadamardInto(got, a, b)
				refHadamardInto(want[:m], a[:m], b[:m])
				bitEqual(t, got, want, ctx+" hadamardInto")
			}
		}
	}
}

// TestOpsForSelection pins the selection rule for every Scratch and OutBuf
// at every rank, for the rank-vector and the fiber primitives alike: the
// SIMD set wherever the CPU runs it, except in race builds, which keep the
// Go forms.
func TestOpsForSelection(t *testing.T) {
	want := genericVecOps
	if simd, ok := simdVecOps(); ok && !cpu.RaceBuild {
		want = simd
	}
	ptrs := func(o vecOps) string {
		return fmt.Sprintf("%p %p %p %p %p %p %p %p %p %p %p %p %p", o.zero, o.addScaled, o.hadamardAccum, o.hadamardInto,
			o.fiberSum, o.fiberHad, o.runHad, o.runOut, o.runScatter, o.nodeHad, o.nodeOut, o.nodePushOut, o.nodePushScatter)
	}
	same := func(got vecOps) bool { return ptrs(got) == ptrs(want) }
	for _, r := range []int{1, 8, 16, 20, 33, 64, 128} {
		if !same(NewScratch(3, r, 2).ops) {
			t.Errorf("NewScratch at R=%d did not get opsFor's set", r)
		}
		if !same(NewOutBuf(10, r, 2, 0).ops) {
			t.Errorf("NewOutBuf at R=%d did not get opsFor's set", r)
		}
	}
}

// TestBlockedEndToEndBitIdentical runs the root and every non-root MTTKRP
// of one plan twice, once with the SIMD set and once with the generic set,
// and requires bit-identical outputs and memoized partials. Every memo
// subset runs, so every (mode, source) kernel of orders 3–5 executes, and
// the planned privatized buffers cover the reduce path's addScaled. The
// per-thread ranges and the reduction order are deterministic, so even the
// T=4 runs must agree to the last bit.
func TestBlockedEndToEndBitIdentical(t *testing.T) {
	simd := simdOrSkip(t)
	shapes := map[int][]int{3: {9, 11, 7}, 4: {6, 9, 11, 7}, 5: {5, 6, 7, 4, 6}, 6: {4, 5, 3, 6, 4, 5}, 7: {3, 4, 3, 4, 3, 4, 3}}
	for d := 3; d <= 7; d++ {
		tt := tensor.Random(shapes[d], 500, nil, int64(d))
		tree := csf.Build(tt, nil)
		for _, threads := range []int{1, 4} {
			part := sched.NewPartition(tree, threads)
			for _, rank := range []int{16, 20, 32, 64} {
				lf := LevelFactors(tensor.RandomFactors(tt.Dims, rank, 777), tree.Perm())
				for mask := 0; mask < 1<<(d-2); mask++ {
					save := make([]bool, d)
					for l := 1; l <= d-2; l++ {
						save[l] = mask&(1<<(l-1)) != 0
					}
					run := func(ops vecOps) []*tensor.Matrix {
						sc := NewScratch(d, rank, threads)
						sc.ops = ops
						partials := NewPartials(tree, rank, save)
						out0 := tensor.NewMatrix(tree.Dim(0), rank)
						RootMTTKRPWith(tree, lf, out0, partials, part, sc)
						outs := []*tensor.Matrix{out0}
						for u := 1; u < d; u++ {
							rw := CountRowWrites(tree, part, u, partials.SourceLevel(u))
							buf := NewOutBufPlanned(PlanAccum(rw, rank, threads, AccumPriv, 0))
							buf.ops = ops
							buf.Reset()
							ModeMTTKRPWith(tree, lf, u, partials, buf, part, sc)
							out := tensor.NewMatrix(tree.Dim(u), rank)
							buf.Reduce(out)
							outs = append(outs, out)
						}
						for _, p := range partials.P {
							if p != nil {
								outs = append(outs, p)
							}
						}
						return outs
					}
					got, want := run(simd), run(genericVecOps)
					for i := range want {
						bitEqual(t, got[i].Data, want[i].Data, fmt.Sprintf("order=%d T=%d R=%d save=%v output %d", d, threads, rank, save, i))
					}
				}
			}
		}
	}
}

// TestGenericUnalignedLengths holds the generic fallback to the reference
// at short and unaligned lengths.
func TestGenericUnalignedLengths(t *testing.T) {
	for _, n := range []int{1, 3, 5, 7, 9, 13, 31, 63, 65} {
		rng := rand.New(rand.NewSource(int64(n)))
		s := rng.NormFloat64()
		dst := randVec(rng, n)
		a := randVec(rng, n)
		b := randVec(rng, n)

		got := append([]float64(nil), dst...)
		want := append([]float64(nil), dst...)
		addScaled(got, s, a)
		refAddScaled(want, s, a)
		bitEqual(t, got, want, fmt.Sprintf("n=%d addScaled", n))

		hadamardAccum(got, a, b)
		refHadamardAccum(want, a, b)
		bitEqual(t, got, want, fmt.Sprintf("n=%d hadamardAccum", n))

		hadamardInto(got, a, b)
		refHadamardInto(want, a, b)
		bitEqual(t, got, want, fmt.Sprintf("n=%d hadamardInto", n))
	}
}

// poisonScratch wraps ops so that every run and node call NaN-fills its
// scratch vectors (child, t, k) after it returns; the one-fiber forms,
// whose child is an output, are left as they are.
func poisonScratch(ops vecOps) vecOps {
	nan := func(vs ...[]float64) {
		for _, v := range vs {
			for i := range v {
				v[i] = math.NaN()
			}
		}
	}
	p := ops
	p.runHad = func(dst, child []float64, gm *tensor.Matrix, r fiberRun, f *tensor.Matrix) {
		ops.runHad(dst, child, gm, r, f)
		nan(child)
	}
	p.runOut = func(out *tensor.Matrix, child, g []float64, r fiberRun, f *tensor.Matrix) {
		ops.runOut(out, child, g, r, f)
		nan(child)
	}
	p.runScatter = func(out *tensor.Matrix, k, a []float64, gm *tensor.Matrix, r fiberRun) {
		ops.runScatter(out, k, a, gm, r)
		nan(k)
	}
	p.nodeHad = func(dst, t, child []float64, gm, fm *tensor.Matrix, nr nodeRun, f *tensor.Matrix) {
		ops.nodeHad(dst, t, child, gm, fm, nr, f)
		nan(t, child)
	}
	p.nodeOut = func(out *tensor.Matrix, t, child, k []float64, fm *tensor.Matrix, nr nodeRun, f *tensor.Matrix) {
		ops.nodeOut(out, t, child, k, fm, nr, f)
		nan(t, child)
	}
	p.nodePushOut = func(out *tensor.Matrix, kn, child, a []float64, gm *tensor.Matrix, nr nodeRun, f *tensor.Matrix) {
		ops.nodePushOut(out, kn, child, a, gm, nr, f)
		nan(kn, child)
	}
	p.nodePushScatter = func(out *tensor.Matrix, kf, kn, a []float64, gm, fm *tensor.Matrix, nr nodeRun) {
		ops.nodePushScatter(out, kf, kn, a, gm, fm, nr)
		nan(kf, kn)
	}
	return p
}

// TestScratchNeverRead holds the walks to the scratch contract of the run
// and node forms: whatever those leave in child, t and k, no walk reads it
// back. Root and non-root sweeps of orders 3–7 under every memo subset, at
// T ∈ {1, 3} and R ∈ {16, 20, 32, 64}, and the subtree walks over every
// slice, run once with the SIMD set (the Go forms without AVX2) and once
// with the same set NaN-filling its scratch after every run and node call.
// Every output and memo row must come out bit for bit the same.
func TestScratchNeverRead(t *testing.T) {
	ops := genericVecOps
	if simd, ok := simdVecOps(); ok {
		ops = simd
	}
	poisoned := poisonScratch(ops)
	shapes := map[int][]int{3: {9, 11, 7}, 4: {6, 9, 11, 7}, 5: {5, 6, 7, 4, 6}, 6: {4, 5, 3, 6, 4, 5}, 7: {3, 4, 3, 4, 3, 4, 3}}
	for d := 3; d <= 7; d++ {
		tt := tensor.Random(shapes[d], 500, nil, int64(d))
		tree := csf.Build(tt, nil)
		for _, rank := range []int{16, 20, 32, 64} {
			lf := LevelFactors(tensor.RandomFactors(tt.Dims, rank, 777), tree.Perm())
			for _, save := range memoSubsets(d) {
				for _, threads := range []int{1, 3} {
					part := sched.NewPartition(tree, threads)
					sweep := func(ops vecOps) []*tensor.Matrix {
						sc := NewScratch(d, rank, threads)
						sc.ops = ops
						partials := NewPartials(tree, rank, save)
						out0 := tensor.NewMatrix(tree.Dim(0), rank)
						RootMTTKRPWith(tree, lf, out0, partials, part, sc)
						outs := []*tensor.Matrix{out0}
						for u := 1; u < d; u++ {
							rw := CountRowWrites(tree, part, u, partials.SourceLevel(u))
							buf := NewOutBufPlanned(PlanAccum(rw, rank, threads, AccumPriv, 0))
							buf.ops = ops
							buf.Reset()
							ModeMTTKRPWith(tree, lf, u, partials, buf, part, sc)
							out := tensor.NewMatrix(tree.Dim(u), rank)
							buf.Reduce(out)
							outs = append(outs, out)
						}
						for _, p := range partials.P {
							if p != nil {
								outs = append(outs, p)
							}
						}
						return outs
					}
					got, want := sweep(poisoned), sweep(ops)
					for i := range want {
						bitEqual(t, got[i].Data, want[i].Data, fmt.Sprintf("order=%d T=%d R=%d save=%v output %d", d, threads, rank, save, i))
					}
				}
				subtrees := func(ops vecOps) []*tensor.Matrix {
					partials := NewPartials(tree, rank, save)
					slices := int64(tree.NumFibers(0))
					out0 := tensor.NewMatrix(tree.Dim(0), rank)
					rootSubtrees(ops, tree, lf, out0, partials, 0, slices)
					outs := []*tensor.Matrix{out0}
					for u := 1; u < d; u++ {
						out := tensor.NewMatrix(tree.Dim(u), rank)
						modeSubtrees(ops, tree, lf, u, partials, out, 0, slices)
						outs = append(outs, out)
					}
					for _, p := range partials.P {
						if p != nil {
							outs = append(outs, p)
						}
					}
					return outs
				}
				got, want := subtrees(poisoned), subtrees(ops)
				for i := range want {
					bitEqual(t, got[i].Data, want[i].Data, fmt.Sprintf("subtrees order=%d R=%d save=%v output %d", d, rank, save, i))
				}
			}
		}
	}
}
