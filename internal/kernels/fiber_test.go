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

// guardsEqual compares the guard elements around a scratch vector's
// window, whose own contents a primitive leaves unspecified.
func guardsEqual(t *testing.T, got, want guarded, ctx string) {
	t.Helper()
	bitEqual(t, got.back[:got.lo], want.back[:want.lo], ctx+" guard before")
	bitEqual(t, got.back[got.lo+got.n:], want.back[want.lo+want.n:], ctx+" guard after")
}

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
// forms bit for bit at every rank from 1 to 70 (every 32-, 16- and
// 4-column block and masked tail) and fiber lengths 0–40 and 300, on inputs mixing
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
// input and guard elements around every written vector and matrix, and
// on runs of 33 and 70 fibers, which the assembly splits into segments
// when the rank spans more than one of its widest blocks (32 columns for
// runHad, 64 for runOut and runScatter). The scratch vector (child, or runScatter's k) is left
// unspecified: only its guard elements are compared.
func TestFiberRunSIMDMatchesGo(t *testing.T) {
	simd := simdOrSkip(t)
	for r := 1; r <= 70; r++ {
		for _, fibers := range []int{0, 1, 2, 3, 4, 5, 6, 33, 70} {
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
					guardsEqual(t, got.child, want.child, ctx+" "+p.name+" child")
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
// fiberHad's child becomes +0 and dst still takes +0 ⊙ g, so an infinite
// g turns dst into NaN and a −0 dst becomes +0, in both sets. runHad folds
// the same into dst; its child is scratch.
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
			checkEmptyFold(t, fmt.Sprintf("%s R=%d runHad", name, r), dst, nil)
		}
	}
}

// TestFiberOneLeafSignedZero pins the one-leaf path's +0 start: a fiber
// of one leaf whose product val·f is −0 sums to +0 + −0 = +0, as fiberSum
// forms it, so runHad turns a −0 dst into −0 + (+0·2) = +0 in every
// column, in both sets, at every rank from 1 to 70 (every block, masked
// chunk and 64-column half). A sum left at −0 would leave dst −0.
func TestFiberOneLeafSignedZero(t *testing.T) {
	sets := map[string]vecOps{"go": genericVecOps}
	if simd, ok := simdVecOps(); ok {
		sets["avx2"] = simd
	}
	negZero := math.Copysign(0, -1)
	for name, ops := range sets {
		for r := 1; r <= 70; r++ {
			f, gm := tensor.NewMatrix(1, r), tensor.NewMatrix(1, r)
			dst, child := make([]float64, r), make([]float64, r)
			for j := range dst {
				f.Data[j], gm.Data[j], dst[j] = 1, 2, negZero
			}
			run := fiberRun{mids: []int32{0}, ptr: []int64{0, 1}, kMax: 1, vals: []float64{negZero}, fids: []int32{0}}
			ops.runHad(dst, child, gm, run, f)
			for j, v := range dst {
				if v != 0 || math.Signbit(v) {
					t.Fatalf("%s R=%d: dst[%d] = %v, want +0 from −0 + ((+0 + −0·1)·2)", name, r, j, v)
				}
			}
		}
	}
}

// checkEmptyFold requires dst = −0 + (+0·g) for the g of
// TestFiberEmptyRangeFolds, +0 where g is 2 and NaN in the last element,
// and child = +0 unless child is nil.
func checkEmptyFold(t *testing.T, ctx string, dst, child []float64) {
	t.Helper()
	r := len(dst)
	for j := range dst {
		if child != nil && (child[j] != 0 || math.Signbit(child[j])) {
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

// nodeCase is one randomly drawn run of sibling level d-3 nodes over
// guarded matrices: nm holds the rows the node ids address, fm the rows
// the fiber ids address and lm the leaves' rows. Nodes hold 0–4 fibers,
// fiber lengths come from fiberLengths, ids repeat within and across
// fibers and nodes, and both clamps cut into the first and last windows,
// empty them, or leave nodes whose raw window is reversed.
type nodeCase struct {
	r                   int
	nrows, frows, lrows int
	nr                  nodeRun
	nm, fm, lm          guarded
	v, t, child         guarded
}

func newNodeCase(rng *rand.Rand, r, nodes int) nodeCase {
	c := nodeCase{r: r, nrows: 1 + rng.Intn(4), frows: 1 + rng.Intn(6), lrows: 1 + rng.Intn(12)}
	nptr := []int64{int64(rng.Intn(3))}
	for i := 0; i < nodes; i++ {
		nptr = append(nptr, nptr[i]+int64(rng.Intn(5)))
	}
	fibers := int(nptr[nodes]) + rng.Intn(3)
	lengths := fiberLengths()
	ptr := []int64{int64(rng.Intn(3))}
	for i := 0; i < fibers; i++ {
		n := lengths[rng.Intn(len(lengths))]
		if rng.Intn(4) != 0 {
			n %= 5
		}
		ptr = append(ptr, ptr[i]+int64(n))
	}
	leaves := int(ptr[fibers]) + rng.Intn(3)
	ids := func(n, rows int) []int32 {
		v := make([]int32, n)
		for i := range v {
			v[i] = int32(rng.Intn(rows))
		}
		return v
	}
	cMin, cMax := int64(0), int64(fibers)
	switch rng.Intn(4) {
	case 0:
		cMin = min(nptr[0]+int64(rng.Intn(3)), cMax)
	case 1:
		cMax = max(nptr[nodes]-int64(rng.Intn(3)), 0)
	case 2:
		// A middle slice of the fibers: the nodes before and after it
		// have reversed raw windows.
		cMin = int64(rng.Intn(fibers + 1))
		cMax = cMin + int64(rng.Intn(fibers+1-int(cMin)))
	}
	kMin, kMax := int64(0), int64(leaves)
	switch rng.Intn(4) {
	case 0:
		kMin = min(ptr[min(cMin, int64(fibers))]+int64(rng.Intn(3)), kMax)
	case 1:
		kMax = max(ptr[cMax]-int64(rng.Intn(3)), 0)
	case 2:
		kMin = int64(rng.Intn(leaves + 1))
		kMax = kMin + int64(rng.Intn(leaves+1-int(kMin)))
	}
	kMin = min(kMin, kMax)
	c.nr = nodeRun{nids: ids(nodes, c.nrows), ptr: nptr, cMin: cMin, cMax: cMax,
		fibers: fiberRun{mids: ids(fibers, c.frows), ptr: ptr, kMin: kMin, kMax: kMax, vals: edgeVec(rng, leaves), fids: ids(leaves, c.lrows)}}
	c.nm, c.fm, c.lm = newGuarded(rng, c.nrows*r), newGuarded(rng, c.frows*r), newGuarded(rng, c.lrows*r)
	c.v, c.t, c.child = newGuarded(rng, r), newGuarded(rng, r), newGuarded(rng, r)
	return c
}

// nodeForms runs each two-level form of ops on case c: every vector and
// matrix it may write comes from st, the rest from c.
var nodeForms = []struct {
	name string
	run  func(ops vecOps, c *nodeCase, st *nodeCase)
}{
	{"nodeHad", func(ops vecOps, c, st *nodeCase) {
		ops.nodeHad(st.v.win(), st.t.win(), st.child.win(), c.nm.matrix(c.nrows, c.r), c.fm.matrix(c.frows, c.r), c.nr, c.lm.matrix(c.lrows, c.r))
	}},
	{"nodeOut", func(ops vecOps, c, st *nodeCase) {
		ops.nodeOut(st.nm.matrix(c.nrows, c.r), st.t.win(), st.child.win(), c.v.win(), c.fm.matrix(c.frows, c.r), c.nr, c.lm.matrix(c.lrows, c.r))
	}},
	{"nodePushOut", func(ops vecOps, c, st *nodeCase) {
		ops.nodePushOut(st.fm.matrix(c.frows, c.r), st.t.win(), st.child.win(), c.v.win(), c.nm.matrix(c.nrows, c.r), c.nr, c.lm.matrix(c.lrows, c.r))
	}},
	{"nodePushScatter", func(ops vecOps, c, st *nodeCase) {
		ops.nodePushScatter(st.lm.matrix(c.lrows, c.r), st.child.win(), st.t.win(), c.v.win(), c.nm.matrix(c.nrows, c.r), c.fm.matrix(c.frows, c.r), c.nr)
	}},
}

// state clones every vector and matrix of c a form may write.
func (c *nodeCase) state() *nodeCase {
	st := *c
	st.nm, st.fm, st.lm = c.nm.clone(), c.fm.clone(), c.lm.clone()
	st.v, st.t, st.child = c.v.clone(), c.t.clone(), c.child.clone()
	return &st
}

// TestNodeRunSIMDMatchesGo holds the AVX2 two-level forms to their Go
// forms bit for bit at every rank from 1 to 70, on runs of 0 to 6 nodes of
// 0 to 4 fibers each, with both clamps cutting into, emptying or
// reversing windows, edge values in every input, and guard elements
// around every written vector and matrix, and on runs of 33 and 70 nodes.
// The scratch
// vectors (t and child, or the scatter's kn and kf) are left unspecified:
// only their guard elements are compared. Inputs a form does not write
// must come out unchanged.
func TestNodeRunSIMDMatchesGo(t *testing.T) {
	simd := simdOrSkip(t)
	for r := 1; r <= 70; r++ {
		for _, nodes := range []int{0, 1, 2, 3, 4, 5, 6, 33, 70} {
			for rep := 0; rep < 4; rep++ {
				rng := rand.New(rand.NewSource(int64(r*1000 + nodes*10 + rep)))
				c := newNodeCase(rng, r, nodes)
				ctx := fmt.Sprintf("R=%d nodes=%d rep=%d nptr=%v fibers [%d,%d) ptr=%v leaves [%d,%d)", r, nodes, rep, c.nr.ptr, c.nr.cMin, c.nr.cMax, c.nr.fibers.ptr, c.nr.fibers.kMin, c.nr.fibers.kMax)
				in := c.state()
				vals0 := slices.Clone(c.nr.fibers.vals)
				for _, p := range nodeForms {
					got, want := c.state(), c.state()
					p.run(simd, &c, got)
					p.run(genericVecOps, &c, want)
					for _, b := range []struct {
						name      string
						got, want guarded
					}{{"v", got.v, want.v}, {"nm", got.nm, want.nm}, {"fm", got.fm, want.fm}, {"lm", got.lm, want.lm}} {
						bitEqual(t, b.got.back, b.want.back, ctx+" "+p.name+" "+b.name)
					}
					guardsEqual(t, got.t, want.t, ctx+" "+p.name+" t")
					guardsEqual(t, got.child, want.child, ctx+" "+p.name+" child")
				}
				for _, b := range []struct {
					name      string
					got, want guarded
				}{{"v", c.v, in.v}, {"t", c.t, in.t}, {"child", c.child, in.child}, {"nm", c.nm, in.nm}, {"fm", c.fm, in.fm}, {"lm", c.lm, in.lm}} {
					bitEqual(t, b.got.back, b.want.back, ctx+" input "+b.name)
				}
				bitEqual(t, c.nr.fibers.vals, vals0, ctx+" input vals")
			}
		}
	}
}

// TestNodeEmptyFolds pins the empty node: a node with no fibers, or whose
// window the fiber clamp empties or reverses, still folds t = +0, so
// nodeHad turns a −0 dst into +0 and an infinite g into NaN, and nodeOut
// does the same to the node's output row; the push forms write no output
// row for a node without fibers, and fold +0 ⊙ kn into the rows of fibers
// without leaves, as the Go forms do. t, child and kn are scratch. Both
// sets must agree on every node shape.
func TestNodeEmptyFolds(t *testing.T) {
	sets := map[string]vecOps{"go": genericVecOps}
	if simd, ok := simdVecOps(); ok {
		sets["avx2"] = simd
	}
	fibers := fiberRun{mids: []int32{0, 0, 0}, ptr: []int64{0, 1, 2, 3}, kMax: 3, vals: []float64{1, 2, 3}, fids: []int32{0, 1, 0}}
	for name, ops := range sets {
		for _, r := range []int{1, 3, 4, 16, 20, 32, 37, 64} {
			f := tensor.NewMatrix(2, r)
			g := tensor.NewMatrix(1, r)
			for j := range g.Data {
				g.Data[j] = 2
			}
			g.Data[r-1] = math.Inf(1)
			for _, nr := range []nodeRun{
				{nids: []int32{0}, ptr: []int64{1, 1}, cMax: 3, fibers: fibers},          // no fibers
				{nids: []int32{0}, ptr: []int64{0, 3}, cMin: 3, cMax: 3, fibers: fibers}, // clamped empty
				{nids: []int32{0}, ptr: []int64{0, 1}, cMin: 2, cMax: 3, fibers: fibers}, // reversed
				{nids: []int32{0}, ptr: []int64{2, 3}, cMin: 0, cMax: 1, fibers: fibers}, // reversed past cMax
				{nids: []int32{0}, ptr: []int64{0, 3}, cMax: 3, fibers: func() fiberRun { // leaves clamped away
					r := fibers
					r.kMin, r.kMax = 3, 3
					return r
				}()},
			} {
				ctx := fmt.Sprintf("%s R=%d nptr=%v fibers [%d,%d) leaves [%d,%d)", name, r, nr.ptr, nr.cMin, nr.cMax, nr.fibers.kMin, nr.fibers.kMax)
				dst, tv, child := make([]float64, r), make([]float64, r), make([]float64, r)
				for j := range dst {
					dst[j] = math.Copysign(0, -1)
					tv[j] = 7
					child[j] = 0
				}
				// Where only the leaf clamp empties the fibers, each folds
				// +0 ⊙ g into t, which stays +0 as well.
				ops.nodeHad(dst, tv, child, g, f, nr, f)
				checkEmptyFold(t, ctx+" nodeHad", dst, nil)

				out := tensor.NewMatrix(1, r)
				for j := range out.Data {
					out.Data[j] = math.Copysign(0, -1)
				}
				ops.nodeOut(out, tv, child, g.Row(0), f, nr, f)
				checkEmptyFold(t, ctx+" nodeOut", out.Row(0), nil)

				a := make([]float64, r)
				for j := range a {
					a[j] = 3
				}
				for _, push := range []struct {
					name string
					run  func(ops vecOps, out *tensor.Matrix)
				}{
					{"nodePushOut", func(ops vecOps, out *tensor.Matrix) { ops.nodePushOut(out, tv, child, a, g, nr, f) }},
					{"nodePushScatter", func(ops vecOps, out *tensor.Matrix) { ops.nodePushScatter(out, child, tv, a, g, f, nr) }},
				} {
					got, want := tensor.NewMatrix(2, r), tensor.NewMatrix(2, r)
					for j := range got.Data {
						got.Data[j] = math.Copysign(0, -1)
						want.Data[j] = got.Data[j]
					}
					push.run(ops, got)
					push.run(genericVecOps, want)
					bitEqual(t, got.Data, want.Data, ctx+" "+push.name)
					if nr.fibers.kMax > nr.fibers.kMin {
						for j, v := range got.Data {
							if v != 0 || !math.Signbit(v) {
								t.Fatalf("%s %s: output element %d = %v, want the −0 it held", ctx, push.name, j, v)
							}
						}
					}
				}
			}
		}
	}
}

// TestNodeBadIDPanics requires both sets to panic on a node id, fiber id
// or leaf id past the last row or below zero, in the first or a later
// node, and the AVX2 wrappers on shapes the assembly cannot walk safely.
func TestNodeBadIDPanics(t *testing.T) {
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
	good := func() nodeRun {
		return nodeRun{nids: []int32{1, 0}, ptr: []int64{0, 1, 3}, cMax: 3,
			fibers: fiberRun{mids: []int32{2, 0, 1}, ptr: []int64{0, 2, 3, 5}, kMax: 5, vals: []float64{1, 2, 3, 4, 5}, fids: []int32{0, 4, 1, 3, 2}}}
	}
	all := func(ops vecOps, r int, nr nodeRun) []func() {
		m := tensor.NewMatrix(5, r)
		v := func() []float64 { return make([]float64, r) }
		return []func(){
			func() { ops.nodeHad(v(), v(), v(), m, m, nr, m) },
			func() { ops.nodeOut(m, v(), v(), v(), m, nr, m) },
			func() { ops.nodePushOut(m, v(), v(), v(), m, nr, m) },
			func() { ops.nodePushScatter(m, v(), v(), v(), m, m, nr) },
		}
	}
	for name, ops := range sets {
		for _, r := range []int{1, 4, 5, 16, 21, 32, 64} {
			for _, fn := range all(ops, r, good()) {
				fn() // in range: must not panic
			}
			for _, bad := range []int32{5, 6, 1 << 30, -1, -1 << 31} {
				for at := 0; at < 2; at++ {
					nr := good()
					nr.nids[at] = bad
					for i, fn := range all(ops, r, nr) {
						mustPanic(fmt.Sprintf("%s R=%d node id %d at node %d form %d", name, r, bad, at, i), fn)
					}
				}
				for _, at := range []int{0, 2} {
					nr := good()
					nr.fibers.mids[at] = bad
					for i, fn := range all(ops, r, nr) {
						mustPanic(fmt.Sprintf("%s R=%d fiber id %d at fiber %d form %d", name, r, bad, at, i), fn)
					}
				}
				for _, at := range []int{0, 4} {
					nr := good()
					nr.fibers.fids[at] = bad
					for i, fn := range all(ops, r, nr) {
						mustPanic(fmt.Sprintf("%s R=%d leaf id %d at leaf %d form %d", name, r, bad, at, i), fn)
					}
				}
			}
		}
	}
	simd, ok := simdVecOps()
	if !ok {
		return
	}
	for _, bad := range []struct {
		name string
		edit func(nr *nodeRun)
	}{
		{"node ptr short of its nodes", func(nr *nodeRun) { nr.ptr = nr.ptr[:2] }},
		{"fiber clamp past the fibers", func(nr *nodeRun) { nr.cMax = 4 }},
		{"fiber clamp below zero", func(nr *nodeRun) { nr.cMin = -1 }},
		{"fiber clamp reversed", func(nr *nodeRun) { nr.cMin = 2; nr.cMax = 1 }},
		{"fiber ptr short of the fibers", func(nr *nodeRun) { nr.fibers.ptr = nr.fibers.ptr[:3] }},
		{"leaf clamp past the leaves", func(nr *nodeRun) { nr.fibers.kMax = 6 }},
	} {
		nr := good()
		bad.edit(&nr)
		for i, fn := range all(simd, 8, nr) {
			mustPanic(fmt.Sprintf("%s form %d", bad.name, i), fn)
		}
	}
	m, wide := tensor.NewMatrix(5, 8), tensor.NewMatrix(5, 9)
	v8 := make([]float64, 8)
	nr := good()
	mustPanic("short dst", func() { simd.nodeHad(v8[:7], v8, v8, m, m, nr, m) })
	mustPanic("short t", func() { simd.nodeOut(m, v8[:7], v8, v8, m, nr, m) })
	mustPanic("short a", func() { simd.nodePushOut(m, v8, v8, v8[:7], m, nr, m) })
	mustPanic("short kn", func() { simd.nodePushScatter(m, v8, v8[:7], v8, m, m, nr) })
	mustPanic("node matrix stride differs from R", func() { simd.nodeHad(v8, v8, v8, wide, m, nr, m) })
	mustPanic("fiber matrix stride differs from R", func() { simd.nodeOut(m, v8, v8, v8, wide, nr, m) })
	mustPanic("leaf matrix stride differs from R", func() { simd.nodePushOut(m, v8, v8, v8, m, nr, wide) })
	mustPanic("scatter output stride differs from R", func() { simd.nodePushScatter(wide, v8, v8, v8, m, m, nr) })
}
