package kernels

import (
	"fmt"
	"math"
	"testing"

	"stef/internal/csf"
	"stef/internal/sched"
	"stef/internal/tensor"
)

// dirtyCell names the first accumulation cell of b that is not +0 in every
// bit, or returns "" when the buffer is clean.
func dirtyCell(b *OutBuf) string {
	for th, m := range b.priv {
		for i, v := range m.Data {
			if math.Float64bits(v) != 0 {
				return fmt.Sprintf("replica %d cell %d = %v", th, i, v)
			}
		}
	}
	for i, v := range b.shared {
		if v != 0 {
			return fmt.Sprintf("shared cell %d = %v", i, math.Float64frombits(v))
		}
	}
	for i, v := range b.hot {
		if math.Float64bits(v) != 0 {
			return fmt.Sprintf("hot cell %d = %v", i, v)
		}
	}
	return ""
}

// TestPlannedReduceLeavesBufferClean checks the clean-on-reduce contract
// of both planned strategies at T = 1, 2 and 3: every cell is +0 once
// Reduce returns; a launch abandoned before its Reduce is cleared by the
// next Reset; and the launch after it gives a fresh buffer's result — bit
// for bit where the strategy is deterministic (priv, or one thread), and
// to rounding where CAS adds race.
func TestPlannedReduceLeavesBufferClean(t *testing.T) {
	cases := []struct {
		dims []int
		nnz  int
		skew []float64
	}{
		{[]int{3, 5, 700}, 900, []float64{3, 2, 0}},
		{[]int{2, 300, 5}, 700, []float64{0, 2, 0}},
		{[]int{6, 5, 9, 8}, 500, []float64{1.5, 0, 2, 0}},
	}
	const rank = 5
	for _, cs := range cases {
		tt := tensor.Random(cs.dims, cs.nnz, cs.skew, 77)
		tree := csf.Build(tt, nil)
		d := tt.Order()
		lf := LevelFactors(tensor.RandomFactors(tt.Dims, rank, 8), tree.Perm())
		save := memoSubsets(d)[1%len(memoSubsets(d))]
		for _, threads := range []int{1, 2, 3} {
			part := sched.NewPartition(tree, threads)
			partials := NewPartials(tree, rank, save)
			RootMTTKRP(tree, lf, tensor.NewMatrix(tree.Dim(0), rank), partials, part)
			for u := 1; u < d; u++ {
				rw := censusFor(tree, part, save, u)
				for _, strat := range []AccumStrategy{AccumPriv, AccumHybrid} {
					for _, budget := range []int64{1, 1 << 20} {
						ctx := fmt.Sprintf("dims %v T %d level %d %v budget %d", cs.dims, threads, u, strat, budget)
						ap := PlanAccum(rw, rank, threads, strat, budget)
						launch := func(b *OutBuf) {
							b.Reset()
							ModeMTTKRP(tree, lf, u, partials, b, part)
						}
						fresh := NewOutBufPlanned(ap)
						launch(fresh)
						want := tensor.NewMatrix(tree.Dim(u), rank)
						fresh.Reduce(want)
						if cell := dirtyCell(fresh); cell != "" {
							t.Fatalf("%s: after Reduce, %s", ctx, cell)
						}

						buf := NewOutBufPlanned(ap)
						launch(buf) // abandoned: no Reduce
						if dirtyCell(buf) == "" {
							t.Fatalf("%s: the abandoned launch wrote nothing; the case tests no clearing", ctx)
						}
						buf.Reset()
						if cell := dirtyCell(buf); cell != "" {
							t.Fatalf("%s: Reset after an abandoned launch left %s", ctx, cell)
						}
						ModeMTTKRP(tree, lf, u, partials, buf, part)
						got := tensor.NewMatrix(tree.Dim(u), rank)
						got.Data[0] = math.NaN() // Reduce must overwrite out
						buf.Reduce(got)
						if cell := dirtyCell(buf); cell != "" {
							t.Fatalf("%s: after the relaunch's Reduce, %s", ctx, cell)
						}
						if strat == AccumPriv || threads == 1 {
							for i, v := range want.Data {
								if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
									t.Fatalf("%s: relaunch element %d = %v, a fresh buffer gives %v", ctx, i, got.Data[i], v)
								}
							}
						} else {
							relClose(t, got, want, ctx)
						}
					}
				}
			}
		}
	}
}
