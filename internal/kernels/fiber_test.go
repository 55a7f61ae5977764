package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"stef/internal/tensor"
)

// guarded is a rank vector or matrix window inside a larger backing array:
// the guard elements on either side must come out of every primitive as
// they went in.
type guarded struct {
	back []float64
	lo   int
	n    int
}

const fiberGuard = 3

func newGuarded(rng *rand.Rand, n int) guarded {
	return guarded{back: edgeVec(rng, n+2*fiberGuard), lo: fiberGuard, n: n}
}

func (g guarded) clone() guarded { g.back = slices.Clone(g.back); return g }

func (g guarded) win() []float64 { return g.back[g.lo : g.lo+g.n : g.lo+g.n] }

// matrix views the window as a rows×r matrix.
func (g guarded) matrix(rows, r int) *tensor.Matrix {
	return &tensor.Matrix{Rows: rows, Cols: r, Data: g.win()}
}

// fiberCase is one randomly drawn fiber: rows×r factor (or output) matrix,
// nnz leaves over row ids that repeat often, and edge values everywhere.
type fiberCase struct {
	r, rows       int
	vals          []float64
	fids          []int32
	mat           guarded
	dst, child, g guarded
}

func newFiberCase(rng *rand.Rand, r, nnz int) fiberCase {
	rows := 1 + rng.Intn(nnz/2+2)
	c := fiberCase{r: r, rows: rows, vals: edgeVec(rng, nnz), fids: make([]int32, nnz)}
	for k := range c.fids {
		c.fids[k] = int32(rng.Intn(rows))
	}
	if nnz > 1 {
		c.fids[nnz-1] = c.fids[0] // at least one repeat within the fiber
	}
	c.mat = newGuarded(rng, rows*r)
	c.dst, c.child, c.g = newGuarded(rng, r), newGuarded(rng, r), newGuarded(rng, r)
	return c
}

// fiberLengths are the leaf counts the contract tests run at.
func fiberLengths() []int {
	var ns []int
	for n := 0; n <= 40; n++ {
		ns = append(ns, n)
	}
	return append(ns, 300)
}

// TestFiberSIMDMatchesGo holds the AVX2 per-fiber primitives to the Go
// forms bit for bit at every rank from 1 to 70 (every 32-, 16-, 4- and
// scalar-tail split) and fiber lengths 0–40 and 300, on inputs mixing
// normal values with ±0, subnormals, ±Inf and NaN in the leaf values, the
// factor rows, g, dst and the stale child. Row ids repeat within a fiber.
// Every written vector sits between guard elements, and every input must
// come out unchanged.
func TestFiberSIMDMatchesGo(t *testing.T) {
	simd := simdOrSkip(t)
	for r := 1; r <= 70; r++ {
		for _, nnz := range fiberLengths() {
			rng := rand.New(rand.NewSource(int64(r*1000 + nnz)))
			c := newFiberCase(rng, r, nnz)
			vals0, fids0, mat0, g0 := slices.Clone(c.vals), slices.Clone(c.fids), slices.Clone(c.mat.back), slices.Clone(c.g.back)
			ctx := fmt.Sprintf("R=%d nnz=%d rows=%d", r, nnz, c.rows)

			for _, p := range []struct {
				name string
				run  func(ops vecOps, dst, child guarded)
			}{
				{"fiberSum", func(ops vecOps, _, child guarded) {
					ops.fiberSum(child.win(), c.vals, c.fids, c.mat.matrix(c.rows, r))
				}},
				{"fiberHad", func(ops vecOps, dst, child guarded) {
					ops.fiberHad(dst.win(), child.win(), c.g.win(), c.vals, c.fids, c.mat.matrix(c.rows, r))
				}},
			} {
				gotDst, gotChild := c.dst.clone(), c.child.clone()
				wantDst, wantChild := c.dst.clone(), c.child.clone()
				p.run(simd, gotDst, gotChild)
				p.run(genericVecOps, wantDst, wantChild)
				bitEqual(t, gotChild.back, wantChild.back, ctx+" "+p.name+" child")
				bitEqual(t, gotDst.back, wantDst.back, ctx+" "+p.name+" dst")
			}

			bitEqual(t, c.vals, vals0, ctx+" vals")
			bitEqual(t, c.mat.back, mat0, ctx+" factor")
			bitEqual(t, c.g.back, g0, ctx+" g")
			if !slices.Equal(c.fids, fids0) {
				t.Fatalf("%s: fids changed", ctx)
			}
		}
	}
}

// runCase is one randomly drawn run of sibling fibers over guarded
// matrices: gm holds the rows the fibers' ids address, f the leaves' rows,
// out the scatter's output rows. Fiber lengths come from fiberLengths,
// ids repeat within and across fibers, and the clamps cut into the first
// and last windows, or empty them.
type runCase struct {
	r                  int
	grows, rows, orows int
	run                fiberRun
	gm, f, out         guarded
	dst, child, g      guarded
}

func newRunCase(rng *rand.Rand, r, fibers int) runCase {
	c := runCase{r: r, grows: 1 + rng.Intn(4), rows: 1 + rng.Intn(12), orows: 1 + rng.Intn(12)}
	lengths := fiberLengths()
	ptr := []int64{int64(rng.Intn(3))}
	for i := 0; i < fibers; i++ {
		n := lengths[rng.Intn(len(lengths))]
		if rng.Intn(4) != 0 {
			n %= 5
		}
		ptr = append(ptr, ptr[i]+int64(n))
	}
	nleaves := int(ptr[fibers]) + rng.Intn(3)
	mids := make([]int32, fibers)
	for i := range mids {
		mids[i] = int32(rng.Intn(c.grows))
	}
	fids := make([]int32, nleaves)
	for k := range fids {
		fids[k] = int32(rng.Intn(min(c.rows, c.orows)))
	}
	kMin, kMax := int64(0), int64(nleaves)
	switch rng.Intn(4) {
	case 0:
		kMin = min(ptr[0]+int64(rng.Intn(3)), kMax)
	case 1:
		kMax = max(ptr[fibers]-int64(rng.Intn(3)), 0)
		kMin = min(kMin, kMax)
	}
	c.run = fiberRun{mids: mids, ptr: ptr, kMin: kMin, kMax: kMax, vals: edgeVec(rng, nleaves), fids: fids}
	c.gm, c.f, c.out = newGuarded(rng, c.grows*r), newGuarded(rng, c.rows*r), newGuarded(rng, c.orows*r)
	c.dst, c.child, c.g = newGuarded(rng, r), newGuarded(rng, r), newGuarded(rng, r)
	return c
}

// TestFiberRunSIMDMatchesGo holds the AVX2 run primitives to the Go forms
// bit for bit at every rank from 1 to 70, on runs of 0 to 6 fibers whose
// lengths mix 0–40 and 300 with short ones, with edge values in every
// input and guard elements around every written vector and matrix.
func TestFiberRunSIMDMatchesGo(t *testing.T) {
	simd := simdOrSkip(t)
	for r := 1; r <= 70; r++ {
		for fibers := 0; fibers <= 6; fibers++ {
			for rep := 0; rep < 4; rep++ {
				rng := rand.New(rand.NewSource(int64(r*1000 + fibers*10 + rep)))
				c := newRunCase(rng, r, fibers)
				ctx := fmt.Sprintf("R=%d fibers=%d rep=%d ptr=%v clamp=[%d,%d)", r, fibers, rep, c.run.ptr, c.run.kMin, c.run.kMax)
				gm0, f0, g0, vals0 := slices.Clone(c.gm.back), slices.Clone(c.f.back), slices.Clone(c.g.back), slices.Clone(c.run.vals)

				type state struct{ dst, child, out, gm guarded }
				for _, p := range []struct {
					name string
					run  func(ops vecOps, st state)
				}{
					{"runHad", func(ops vecOps, st state) {
						ops.runHad(st.dst.win(), st.child.win(), c.gm.matrix(c.grows, r), c.run, c.f.matrix(c.rows, r))
					}},
					{"runOut", func(ops vecOps, st state) {
						ops.runOut(st.gm.matrix(c.grows, r), st.child.win(), c.g.win(), c.run, c.f.matrix(c.rows, r))
					}},
					{"runScatter", func(ops vecOps, st state) {
						ops.runScatter(st.out.matrix(c.orows, r), st.child.win(), c.g.win(), c.gm.matrix(c.grows, r), c.run)
					}},
				} {
					got := state{c.dst.clone(), c.child.clone(), c.out.clone(), c.gm.clone()}
					want := state{c.dst.clone(), c.child.clone(), c.out.clone(), c.gm.clone()}
					p.run(simd, got)
					p.run(genericVecOps, want)
					bitEqual(t, got.dst.back, want.dst.back, ctx+" "+p.name+" dst")
					bitEqual(t, got.child.back, want.child.back, ctx+" "+p.name+" child")
					bitEqual(t, got.out.back, want.out.back, ctx+" "+p.name+" out")
					bitEqual(t, got.gm.back, want.gm.back, ctx+" "+p.name+" gm")
				}
				bitEqual(t, c.gm.back, gm0, ctx+" gm input")
				bitEqual(t, c.f.back, f0, ctx+" f input")
				bitEqual(t, c.g.back, g0, ctx+" g input")
				bitEqual(t, c.run.vals, vals0, ctx+" vals input")
			}
		}
	}
}

// TestFiberEmptyRangeFolds pins the partition-clamped empty leaf window:
// child becomes +0 and dst still takes +0 ⊙ g, so an infinite g turns dst
// into NaN and a −0 dst becomes +0, in both sets.
func TestFiberEmptyRangeFolds(t *testing.T) {
	sets := map[string]vecOps{"go": genericVecOps}
	if simd, ok := simdVecOps(); ok {
		sets["avx2"] = simd
	}
	for name, ops := range sets {
		for _, r := range []int{1, 3, 4, 16, 20, 32, 37, 64} {
			f := tensor.NewMatrix(2, r)
			dst, child, g := make([]float64, r), make([]float64, r), make([]float64, r)
			for j := range dst {
				dst[j] = math.Copysign(0, -1)
				child[j] = 7
				g[j] = 2
			}
			g[r-1] = math.Inf(1)
			ops.fiberHad(dst, child, g, nil, nil, f)
			checkEmptyFold(t, fmt.Sprintf("%s R=%d fiberHad", name, r), dst, child)

			// A run whose one window the clamps empty folds the same.
			gm := tensor.NewMatrix(1, r)
			copy(gm.Data, g)
			for j := range dst {
				dst[j] = math.Copysign(0, -1)
				child[j] = 7
			}
			run := fiberRun{mids: []int32{0}, ptr: []int64{0, 3}, kMin: 3, kMax: 3, vals: []float64{1, 2, 3}, fids: []int32{0, 1, 0}}
			ops.runHad(dst, child, gm, run, f)
			checkEmptyFold(t, fmt.Sprintf("%s R=%d runHad", name, r), dst, child)
		}
	}
}

// checkEmptyFold requires child = +0 and dst = −0 + (+0·g) for the g of
// TestFiberEmptyRangeFolds: +0 where g is 2, NaN in the last element.
func checkEmptyFold(t *testing.T, ctx string, dst, child []float64) {
	t.Helper()
	r := len(dst)
	for j := range dst {
		if child[j] != 0 || math.Signbit(child[j]) {
			t.Fatalf("%s: child[%d] = %v, want +0", ctx, j, child[j])
		}
		switch {
		case j == r-1 && !math.IsNaN(dst[j]):
			t.Fatalf("%s: dst[%d] = %v, want NaN from +0·Inf", ctx, j, dst[j])
		case j < r-1 && (dst[j] != 0 || math.Signbit(dst[j])):
			t.Fatalf("%s: dst[%d] = %v, want +0 from −0 + (+0·2)", ctx, j, dst[j])
		}
	}
}

// TestFiberBadIDPanics requires both sets to panic on a fid past the last
// row or below zero, and the AVX2 wrappers on shapes the assembly cannot
// index safely, before any out-of-range row is read or written.
func TestFiberBadIDPanics(t *testing.T) {
	sets := map[string]vecOps{"go": genericVecOps}
	if simd, ok := simdVecOps(); ok {
		sets["avx2"] = simd
	}
	mustPanic := func(ctx string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", ctx)
			}
		}()
		fn()
	}
	for name, ops := range sets {
		for _, r := range []int{1, 4, 5, 16, 21, 32, 64} {
			for _, bad := range []int32{5, 6, 1 << 30, -1, -1 << 31} {
				for _, at := range []int{0, 2} {
					f := tensor.NewMatrix(5, r)
					vals := []float64{1, 2, 3}
					fids := []int32{0, 4, 1}
					fids[at] = bad
					v := make([]float64, r)
					ctx := fmt.Sprintf("%s R=%d fid %d at leaf %d", name, r, bad, at)
					mustPanic(ctx+" fiberSum", func() { ops.fiberSum(v, vals, fids, f) })
					mustPanic(ctx+" fiberHad", func() { ops.fiberHad(make([]float64, r), v, make([]float64, r), vals, fids, f) })
					run := fiberRun{mids: []int32{1, 0}, ptr: []int64{0, 2, 3}, kMax: 3, vals: vals, fids: fids}
					mustPanic(ctx+" runHad", func() { ops.runHad(make([]float64, r), v, f, run, f) })
					mustPanic(ctx+" runOut", func() { ops.runOut(f, v, make([]float64, r), run, f) })
					mustPanic(ctx+" runScatter", func() { ops.runScatter(f, v, make([]float64, r), f, run) })
				}
				for _, at := range []int{0, 1} {
					f := tensor.NewMatrix(5, r)
					mids := []int32{1, 0}
					mids[at] = bad
					run := fiberRun{mids: mids, ptr: []int64{0, 2, 3}, kMax: 3, vals: []float64{1, 2, 3}, fids: []int32{0, 4, 1}}
					v := make([]float64, r)
					ctx := fmt.Sprintf("%s R=%d mid %d at fiber %d", name, r, bad, at)
					mustPanic(ctx+" runHad", func() { ops.runHad(make([]float64, r), v, f, run, f) })
					mustPanic(ctx+" runOut", func() { ops.runOut(f, v, make([]float64, r), run, f) })
					mustPanic(ctx+" runScatter", func() { ops.runScatter(f, v, make([]float64, r), f, run) })
				}
			}
		}
	}
	simd, ok := simdVecOps()
	if !ok {
		return
	}
	f := tensor.NewMatrix(4, 8)
	short := &tensor.Matrix{Rows: 4, Cols: 8, Data: make([]float64, 31)}
	wide := tensor.NewMatrix(4, 9)
	v8 := make([]float64, 8)
	mustPanic("short g", func() { simd.fiberHad(v8, v8, v8[:7], nil, nil, f) })
	mustPanic("short dst", func() { simd.fiberHad(v8[:7], v8, v8, nil, nil, f) })
	mustPanic("fids shorter than vals", func() { simd.fiberSum(v8, []float64{1}, nil, f) })
	mustPanic("matrix data short of its rows", func() { simd.fiberSum(v8, nil, nil, short) })
	mustPanic("stride differs from R", func() { simd.fiberSum(v8, nil, nil, wide) })
	run := fiberRun{mids: []int32{0}, ptr: []int64{0, 1}, kMax: 1, vals: []float64{1}, fids: []int32{0}}
	mustPanic("run short dst", func() { simd.runHad(v8[:7], v8, f, run, f) })
	mustPanic("run stride differs from R", func() { simd.runHad(v8, v8, wide, run, f) })
	mustPanic("run leaf stride differs from R", func() { simd.runOut(f, v8, v8, run, wide) })
	mustPanic("scatter stride differs from R", func() { simd.runScatter(wide, v8, v8, f, run) })
	mustPanic("scatter short a", func() { simd.runScatter(f, v8, v8[:7], f, run) })
	fewPtr := run
	fewPtr.ptr = []int64{0}
	mustPanic("run ptr short of its fibers", func() { simd.runHad(v8, v8, f, fewPtr, f) })
	past := run
	past.kMax = 2
	mustPanic("run clamp past the leaves", func() { simd.runHad(v8, v8, f, past, f) })
	neg := run
	neg.kMin = -1
	mustPanic("run clamp below zero", func() { simd.runScatter(f, v8, v8, f, neg) })
	fewFids := run
	fewFids.fids = nil
	fewFids.kMax = 0
	mustPanic("run fids shorter than vals", func() { simd.runScatter(f, v8, v8, f, fewFids) })
}
