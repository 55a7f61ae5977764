package kernels

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"stef/internal/csf"
	"stef/internal/par"
	"stef/internal/sched"
	"stef/internal/tensor"
)

// censusFor runs the write census for every (mode, source) pair the save
// vector induces, mirroring core's planner.
func censusFor(tree *csf.Tree, part *sched.Partition, save []bool, u int) *RowWrites {
	d := tree.Order()
	src := d - 1
	if u < d-1 {
		for l := u; l <= d-2; l++ {
			if save[l] {
				src = l
				break
			}
		}
	}
	return CountRowWrites(tree, part, u, src)
}

// TestCountRowWritesInvariants cross-checks the census' three views of the
// same walk — counts, writer classification, and per-thread journals —
// against each other on skewed tensors.
func TestCountRowWritesInvariants(t *testing.T) {
	tt := tensor.Random([]int{9, 40, 300}, 1200, []float64{2, 1.5, 0}, 71)
	tree := csf.Build(tt, nil)
	for _, threads := range []int{1, 2, 4, 7} {
		part := sched.NewPartition(tree, threads)
		for _, save := range memoSubsets(3) {
			for u := 1; u < 3; u++ {
				rw := censusFor(tree, part, save, u)
				var sum int64
				journals := make(map[int32][]int)
				for th, rows := range rw.PerThread {
					for i, r := range rows {
						if i > 0 && rows[i-1] >= r {
							t.Fatalf("T=%d u=%d: journal %d not strictly ascending at %d", threads, u, th, i)
						}
						journals[r] = append(journals[r], th)
					}
				}
				for r, c := range rw.Counts {
					sum += c
					w := rw.Writer[r]
					ths := journals[int32(r)]
					switch {
					case c == 0:
						if w != RemapUntouched || len(ths) != 0 {
							t.Fatalf("T=%d u=%d row %d: count 0 but writer %d, journals %v", threads, u, r, w, ths)
						}
					case len(ths) == 1:
						if w != int32(ths[0]) {
							t.Fatalf("T=%d u=%d row %d: one journal (thread %d) but writer %d", threads, u, r, ths[0], w)
						}
					default:
						if w != RemapColdCAS {
							t.Fatalf("T=%d u=%d row %d: %d journal threads but writer %d", threads, u, r, len(ths), w)
						}
					}
				}
				if sum != rw.Writes {
					t.Fatalf("T=%d u=%d: counts sum %d, Writes %d", threads, u, sum, rw.Writes)
				}
				if threads == 1 {
					for r, w := range rw.Writer {
						if w != RemapUntouched && w != 0 {
							t.Fatalf("u=%d row %d: writer %d on a single-thread census", u, r, w)
						}
					}
				}
			}
		}
	}
}

// sortedCensus is the census reference written with a sort: each thread's
// rows collected as first touched, then sorted, as CountRowWrites did
// before it read its journals from a bitset.
func sortedCensus(tree *csf.Tree, part *sched.Partition, u, src int) *RowWrites {
	d := tree.Order()
	rows := tree.Dim(u)
	rw := &RowWrites{Counts: make([]int64, rows), Writer: make([]int32, rows), PerThread: make([][]int32, part.T)}
	for r := range rw.Writer {
		rw.Writer[r] = RemapUntouched
	}
	fids := tree.FidLevel(u)
	for th := 0; th < part.T; th++ {
		var lo, hi int64
		switch {
		case u == d-1:
			lo, hi = part.LeafRange(th)
		case u == src:
			lo, hi = part.OwnedRange(th, u)
		default:
			lo, hi = part.Start[th][u], min(part.Own[th+1][u], int64(len(fids)))
		}
		seen := map[int32]bool{}
		var journal []int32
		for c := lo; c < hi; c++ {
			r := fids[c]
			rw.Counts[r]++
			if w := rw.Writer[r]; w == RemapUntouched {
				rw.Writer[r] = int32(th)
			} else if w != int32(th) && w >= 0 {
				rw.Writer[r] = RemapColdCAS
			}
			if !seen[r] {
				seen[r] = true
				journal = append(journal, r)
			}
		}
		slices.Sort(journal)
		rw.PerThread[th] = journal
		rw.Writes += hi - lo
	}
	return rw
}

// TestCountRowWritesMatchesSortedCensus holds the census to the sorted
// reference for every (u, src) pair at 1, 2 and 5 threads, on a skewed
// order-4 tensor with rows no thread touches.
func TestCountRowWritesMatchesSortedCensus(t *testing.T) {
	tt := tensor.Random([]int{7, 30, 90, 200}, 3000, []float64{1.5, 1.2, 0, 1.8}, 29)
	tree := csf.Build(tt, nil)
	d := tree.Order()
	for _, threads := range []int{1, 2, 5} {
		part := sched.NewPartition(tree, threads)
		for u := 1; u < d; u++ {
			for src := u; src < d; src++ {
				got, want := CountRowWrites(tree, part, u, src), sortedCensus(tree, part, u, src)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("T=%d u=%d src=%d: census differs from the sorted reference", threads, u, src)
				}
			}
		}
	}
}

// TestCountRowWritesLeafHistogram pins the leaf-mode census at T=1 to the
// directly computable answer: one write per non-zero, bucketed by leaf fid.
func TestCountRowWritesLeafHistogram(t *testing.T) {
	tt := tensor.Random([]int{5, 7, 30}, 200, []float64{0, 0, 2}, 13)
	tree := csf.Build(tt, nil)
	part := sched.NewPartition(tree, 1)
	rw := CountRowWrites(tree, part, 2, 2)
	d := tree.Order()
	want := make([]int64, tree.Dim(d-1))
	for _, f := range tree.FidLevel(d - 1) {
		want[f]++
	}
	for r, c := range rw.Counts {
		if c != want[r] {
			t.Fatalf("leaf row %d: census count %d, histogram %d", r, c, want[r])
		}
	}
}

// TestPlanAccumInvariants checks the classification every strategy's plan
// must satisfy: remap totality, journal/cold/touched consistency, hot-set
// admission rules and the footprint budget.
func TestPlanAccumInvariants(t *testing.T) {
	tt := tensor.Random([]int{8, 60, 400}, 2500, []float64{2, 2, 1.5}, 99)
	tree := csf.Build(tt, nil)
	const cols, threads = 8, 4
	part := sched.NewPartition(tree, threads)
	for u := 1; u < 3; u++ {
		rw := censusFor(tree, part, []bool{false, false, false}, u)
		for _, budget := range []int64{1, int64(2 * threads * cols), 1 << 20} {
			ap := PlanAccum(rw, cols, threads, AccumHybrid, budget)
			if got := int64(ap.HotK() * threads * cols); got > budget {
				t.Fatalf("u=%d budget %d: hot footprint %d over budget", u, budget, got)
			}
			if ap.CASRows+ap.DirectRows != len(ap.Cold) {
				t.Fatalf("u=%d: CAS %d + direct %d != cold %d", u, ap.CASRows, ap.DirectRows, len(ap.Cold))
			}
			if len(ap.HotIDs)+len(ap.Cold) != ap.TouchedRows {
				t.Fatalf("u=%d: hot %d + cold %d != touched %d", u, len(ap.HotIDs), len(ap.Cold), ap.TouchedRows)
			}
			var hotWrites int64
			for slot, r := range ap.HotIDs {
				if ap.Remap[r] != int32(slot) {
					t.Fatalf("u=%d: hot row %d remaps to %d, want slot %d", u, r, ap.Remap[r], slot)
				}
				if rw.Writer[r] != RemapColdCAS {
					t.Fatalf("u=%d: hot row %d is not multi-writer in the census", u, r)
				}
				if rw.Counts[r] < int64(hotWriteFactor*threads) {
					t.Fatalf("u=%d: hot row %d has %d writes, below the admission threshold", u, r, rw.Counts[r])
				}
				hotWrites += rw.Counts[r]
			}
			if hotWrites != ap.HotWrites {
				t.Fatalf("u=%d: HotWrites %d, want %d", u, ap.HotWrites, hotWrites)
			}
			for _, r := range ap.Cold {
				if w := ap.Remap[r]; w != RemapColdDirect && w != RemapColdCAS {
					t.Fatalf("u=%d: cold row %d remaps to %d", u, r, w)
				}
				if (ap.Remap[r] == RemapColdDirect) != (rw.Writer[r] >= 0) {
					t.Fatalf("u=%d: cold row %d direct/CAS split disagrees with census writer %d", u, r, rw.Writer[r])
				}
			}
			for r, w := range ap.Remap {
				if w == RemapUntouched && rw.Counts[r] != 0 {
					t.Fatalf("u=%d: row %d marked untouched with %d census writes", u, r, rw.Counts[r])
				}
			}
		}
		priv := PlanAccum(rw, cols, threads, AccumPriv, 0)
		for r, w := range priv.Remap {
			if w != rw.Writer[r] {
				t.Fatalf("u=%d: priv remap[%d] = %d, census writer %d", u, r, w, rw.Writer[r])
			}
		}
	}
}

// runAllModesPlanned mirrors runAllModes but accumulates through planned
// buffers with the given strategy and hot budget, so every strategy's
// output is checked against the COO reference.
func runAllModesPlanned(t *testing.T, tt *tensor.Tensor, tree *csf.Tree, part *sched.Partition, save []bool, rank int, strat AccumStrategy, budget int64, ctx string) {
	t.Helper()
	d := tt.Order()
	factors := tensor.RandomFactors(tt.Dims, rank, 4242)
	lf := LevelFactors(factors, tree.Perm())
	partials := NewPartials(tree, rank, save)
	out0 := tensor.NewMatrix(tree.Dim(0), rank)
	RootMTTKRP(tree, lf, out0, partials, part)
	for u := 1; u < d; u++ {
		rw := censusFor(tree, part, save, u)
		ap := PlanAccum(rw, rank, part.T, strat, budget)
		buf := NewOutBufPlanned(ap)
		buf.Reset()
		ModeMTTKRP(tree, lf, u, partials, buf, part)
		got := tensor.NewMatrix(tree.Dim(u), rank)
		buf.Reduce(got)
		want := Reference(tt, factors, tree.Perm()[u])
		relClose(t, got, want, fmt.Sprintf("%s mode(level%d) %v budget=%d", ctx, u, strat, budget))

		// Reset must return the buffer to a reusable state: a second
		// launch has to reproduce the same output.
		buf.Reset()
		ModeMTTKRP(tree, lf, u, partials, buf, part)
		again := tensor.NewMatrix(tree.Dim(u), rank)
		buf.Reduce(again)
		relClose(t, again, want, fmt.Sprintf("%s mode(level%d) %v relaunch", ctx, u, strat))
	}
}

// TestPlannedStrategiesMatchReference drives every accumulation strategy
// over skewed tensors and thread counts, with budgets forcing empty,
// partial and saturated hot sets.
func TestPlannedStrategiesMatchReference(t *testing.T) {
	cases := []struct {
		dims []int
		nnz  int
		skew []float64
	}{
		{[]int{7, 9, 11}, 400, nil},
		{[]int{3, 5, 700}, 900, []float64{3, 2, 0}}, // hot leaf boundary splits
		{[]int{2, 300, 5}, 700, []float64{0, 2, 0}}, // two root slices, shared rows
		{[]int{6, 5, 9, 8}, 500, []float64{1.5, 0, 2, 0}},
	}
	for _, cs := range cases {
		tt := tensor.Random(cs.dims, cs.nnz, cs.skew, int64(len(cs.dims))*31)
		tree := csf.Build(tt, nil)
		d := len(cs.dims)
		for _, threads := range []int{1, 2, 5} {
			part := sched.NewPartition(tree, threads)
			save := memoSubsets(d)[1%len(memoSubsets(d))]
			ctx := fmt.Sprintf("dims=%v T=%d", cs.dims, threads)
			for _, strat := range []AccumStrategy{AccumPriv, AccumHybrid} {
				for _, budget := range []int64{1, int64(3 * threads * 4), 1 << 20} {
					runAllModesPlanned(t, tt, tree, part, save, 4, strat, budget, ctx)
				}
			}
		}
	}
}

// TestPlannedQuick property-tests the planned strategies against the
// privatized reference on random skewed shapes.
func TestPlannedQuick(t *testing.T) {
	f := func(seed int64, tRaw, sRaw, bRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := []int{2 + rng.Intn(8), 2 + rng.Intn(30), 2 + rng.Intn(80)}
		skew := []float64{0, []float64{0, 1.5, 2.5}[rng.Intn(3)], []float64{0, 2}[rng.Intn(2)]}
		nnz := 80 + rng.Intn(300)
		if space := dims[0] * dims[1] * dims[2]; nnz > space/2 {
			nnz = space / 2
		}
		tt := tensor.Random(dims, nnz, skew, seed)
		tree := csf.Build(tt, nil)
		threads := 1 + int(tRaw)%6
		part := sched.NewPartition(tree, threads)
		strat := []AccumStrategy{AccumPriv, AccumHybrid}[int(sRaw)%2]
		budget := []int64{1, 64, 1 << 18}[int(bRaw)%3]

		rank := 3
		factors := tensor.RandomFactors(tt.Dims, rank, seed+1)
		lf := LevelFactors(factors, tree.Perm())
		save := []bool{false, true, false}
		partials := NewPartials(tree, rank, save)
		out0 := tensor.NewMatrix(tree.Dim(0), rank)
		RootMTTKRP(tree, lf, out0, partials, part)
		for u := 1; u < 3; u++ {
			rw := censusFor(tree, part, save, u)
			buf := NewOutBufPlanned(PlanAccum(rw, rank, threads, strat, budget))
			buf.Reset()
			ModeMTTKRP(tree, lf, u, partials, buf, part)
			got := tensor.NewMatrix(tree.Dim(u), rank)
			buf.Reduce(got)
			want := Reference(tt, factors, tree.Perm()[u])
			if got.MaxAbsDiff(want) > tol*(1+want.NormFrobenius()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// stressCensus hand-builds a census whose plan exercises every write path
// at once: hot replicas (rows 0..3), cold CAS pairs (4..19), single-writer
// direct rows (20..19+T) and an untouched tail.
func stressCensus(threads int) *RowWrites {
	const rows = 48
	rw := &RowWrites{
		Counts:    make([]int64, rows),
		Writer:    make([]int32, rows),
		PerThread: make([][]int32, threads),
	}
	for r := range rw.Writer {
		rw.Writer[r] = RemapUntouched
	}
	touch := func(r, th int, c int64) {
		rw.Counts[r] += c
		rw.Writes += c
		switch w := rw.Writer[r]; {
		case w == RemapUntouched:
			rw.Writer[r] = int32(th)
		case w != int32(th):
			rw.Writer[r] = RemapColdCAS
		}
		rw.PerThread[th] = append(rw.PerThread[th], int32(r))
	}
	for r := 0; r < 4; r++ { // hot: every thread, far above the 2T threshold
		for th := 0; th < threads; th++ {
			touch(r, th, int64(4*hotWriteFactor*threads))
		}
	}
	for r := 4; r < 20; r++ { // cold CAS: two writers, below the threshold
		touch(r, r%threads, 1)
		touch(r, (r+1)%threads, 1)
	}
	for r := 20; r < 20+threads; r++ { // direct: one writer each
		touch(r, r-20, 2)
	}
	return rw
}

// TestOutBufPlannedStress hammers every accumulation path from T real
// goroutines across repeated Reset/launch/Reduce cycles and checks the
// reduced values exactly. Run with -race this doubles as the data-race
// proof for atomicAddFloat (the hybrid's CAS rows), the hot slabs and the
// direct stores.
func TestOutBufPlannedStress(t *testing.T) {
	const threads, cols, iters, launches = 8, 8, 25, 12
	rw := stressCensus(threads)
	src := make([]float64, cols)
	for i := range src {
		src[i] = float64(i + 1)
	}
	for _, strat := range []AccumStrategy{AccumPriv, AccumHybrid} {
		ap := PlanAccum(rw, cols, threads, strat, int64(4*threads*cols))
		if strat == AccumHybrid && ap.HotK() != 4 {
			t.Fatalf("stress fixture: hot set %d, want 4", ap.HotK())
		}
		buf := NewOutBufPlanned(ap)
		out := tensor.NewMatrix(48, cols)
		for launch := 0; launch < launches; launch++ {
			buf.Reset()
			par.Do(threads, func(th int) {
				o := buf.Thread(th)
				for it := 0; it < iters; it++ {
					for _, r := range rw.PerThread[th] {
						o.AddScaled(int(r), 1, src)
					}
				}
			})
			buf.Reduce(out)
			for r := 0; r < 48; r++ {
				writers := 0
				for th := 0; th < threads; th++ {
					for _, jr := range rw.PerThread[th] {
						if int(jr) == r {
							writers++
						}
					}
				}
				want := float64(writers * iters)
				for c := 0; c < cols; c++ {
					if got := out.At(r, c); got != want*src[c] {
						t.Fatalf("%v launch %d row %d col %d: got %g, want %g", strat, launch, r, c, got, want*src[c])
					}
				}
			}
		}
	}
}

// TestNodeFallbackMatchesGeneric holds the output buffer's node-by-node
// fallbacks to its fused calls. With no memo, the non-root walks of orders
// 4 to 6 end in the two-level calls (NodeOut, NodePushOut,
// NodePushScatter): a private slab takes them fused, a hybrid buffer one
// node at a time. At T = 1 the hybrid must match the private slab bit for
// bit; at T = 3, where CAS adds land in any order, both strategies must
// match the reference.
func TestNodeFallbackMatchesGeneric(t *testing.T) {
	for _, dims := range [][]int{{6, 5, 9, 8}, {4, 5, 6, 7, 8}, {3, 4, 5, 3, 4, 5}} {
		tt := tensor.Random(dims, 600, []float64{1.5, 0, 0, 0, 0, 0}[:len(dims)], 19)
		d := len(dims)
		tree := csf.Build(tt, nil)
		factors := tensor.RandomFactors(tt.Dims, 6, 3)
		lf := LevelFactors(factors, tree.Perm())
		save := make([]bool, d)
		for _, threads := range []int{1, 3} {
			part := sched.NewPartition(tree, threads)
			partials := NewPartials(tree, 6, save)
			RootMTTKRP(tree, lf, tensor.NewMatrix(tree.Dim(0), 6), partials, part)
			for u := 1; u < d; u++ {
				rw := censusFor(tree, part, save, u)
				run := func(strat AccumStrategy) *tensor.Matrix {
					buf := NewOutBufPlanned(PlanAccum(rw, 6, threads, strat, int64(2*threads*6)))
					buf.Reset()
					ModeMTTKRP(tree, lf, u, partials, buf, part)
					got := tensor.NewMatrix(tree.Dim(u), 6)
					buf.Reduce(got)
					return got
				}
				fused := run(AccumPriv)
				want := Reference(tt, factors, tree.Perm()[u])
				for _, strat := range []AccumStrategy{AccumPriv, AccumHybrid} {
					ctx := fmt.Sprintf("dims=%v T=%d u=%d %v", dims, threads, u, strat)
					got := run(strat)
					if threads == 1 {
						if diff := got.MaxAbsDiff(fused); diff != 0 {
							t.Fatalf("%s: differs from the fused private slab by %g", ctx, diff)
						}
						continue
					}
					relClose(t, got, want, ctx)
				}
			}
		}
	}
}
