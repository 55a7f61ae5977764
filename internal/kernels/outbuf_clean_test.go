package kernels

import (
	"fmt"
	"math"
	"testing"

	"stef/internal/csf"
	"stef/internal/sched"
	"stef/internal/tensor"
)

// dirtyCell names the first replica cell of b that is not +0 in every
// bit, or returns "" when the buffer is clean. A planned priv buffer's
// slot 0 is thread 0's slab, the launch's output (or the buffer's own
// matrix that Reduce copies out), not a replica, so it is skipped.
func dirtyCell(b *OutBuf) string {
	for th, m := range b.priv {
		if th == 0 && b.plan != nil {
			continue
		}
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

// filled returns a rows×cols matrix with every element v: a stale output.
func filled(rows, cols int, v float64) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = v
	}
	return m
}

// TestPlannedReduceLeavesBufferClean checks the clean-on-reduce contract
// of both planned strategies at T = 1, 2 and 3, unbound (Reset) and bound
// to the output (ResetInto), whose thread 0 accumulates in the output
// itself: every replica cell is +0 once Reduce returns; a launch abandoned
// before its Reduce is cleared by the next Reset, which leaves the matrix
// the abandoned launch was bound to as it was; and the launch after it
// gives a fresh buffer's result into a NaN-filled output — bit for bit
// where the strategy is deterministic (priv, or one thread), and to
// rounding where CAS adds race.
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
				rows := tree.Dim(u)
				for _, strat := range []AccumStrategy{AccumPriv, AccumHybrid} {
					for _, budget := range []int64{1, 1 << 20} {
						ap := PlanAccum(rw, rank, threads, strat, budget)
						fresh := NewOutBufPlanned(ap)
						fresh.Reset()
						ModeMTTKRP(tree, lf, u, partials, fresh, part)
						want := tensor.NewMatrix(rows, rank)
						fresh.Reduce(want)
						if cell := dirtyCell(fresh); cell != "" {
							t.Fatalf("dims %v T %d level %d %v budget %d: after Reduce, %s", cs.dims, threads, u, strat, budget, cell)
						}
						for _, bound := range []bool{false, true} {
							ctx := fmt.Sprintf("dims %v T %d level %d %v budget %d bound %v", cs.dims, threads, u, strat, budget, bound)
							launch := func(b *OutBuf, out *tensor.Matrix) {
								if bound {
									b.ResetInto(out)
								} else {
									b.Reset()
								}
								ModeMTTKRP(tree, lf, u, partials, b, part)
							}
							buf := NewOutBufPlanned(ap)
							first := filled(rows, rank, 7)
							launch(buf, first) // abandoned: no Reduce
							if dirtyCell(buf) == "" && (strat == AccumHybrid || threads > 1) {
								t.Fatalf("%s: the abandoned launch wrote nothing; the case tests no clearing", ctx)
							}
							kept := first.Clone()
							buf.Reset()
							if cell := dirtyCell(buf); cell != "" {
								t.Fatalf("%s: Reset after an abandoned launch left %s", ctx, cell)
							}
							ModeMTTKRP(tree, lf, u, partials, buf, part)
							buf.Reduce(tensor.NewMatrix(rows, rank))
							if bound {
								for i, v := range kept.Data {
									if math.Float64bits(first.Data[i]) != math.Float64bits(v) {
										t.Fatalf("%s: element %d of the abandoned launch's output changed from %v to %v after it was unbound", ctx, i, v, first.Data[i])
									}
								}
							}

							got := filled(rows, rank, math.NaN()) // Reduce must overwrite every element
							launch(buf, got)
							buf.Reduce(got)
							if cell := dirtyCell(buf); cell != "" {
								t.Fatalf("%s: after the relaunch's Reduce, %s", ctx, cell)
							}
							if strat == AccumPriv && buf.priv[0] != buf.own {
								t.Fatalf("%s: Reduce left the buffer bound", ctx)
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
}

// TestPlannedPrivReplicaCount pins a planned priv buffer's memory: T−1
// replicas, none at T = 1, and no matrix of its own while every launch
// is bound to its output, which is what its plan's WorkspaceBytes counts
// (as it counts a hybrid buffer's shared region and hot slabs); the first
// unbound Reset allocates that one matrix, which thread 0 then
// accumulates in.
func TestPlannedPrivReplicaCount(t *testing.T) {
	tt := tensor.Random([]int{4, 30, 50}, 400, []float64{0, 1.5, 1.5}, 5)
	tree := csf.Build(tt, nil)
	lf := LevelFactors(tensor.RandomFactors(tt.Dims, 3, 2), tree.Perm())
	for _, threads := range []int{1, 2, 3} {
		part := sched.NewPartition(tree, threads)
		partials := NewPartials(tree, 3, make([]bool, 3))
		ap := PlanAccum(censusFor(tree, part, partials.Save, 2), 3, threads, AccumPriv, 0)
		buf := NewOutBufPlanned(ap)
		replicas := 0
		for _, m := range buf.priv {
			if m != nil {
				replicas++
			}
		}
		if replicas != threads-1 {
			t.Fatalf("T %d: %d replicas, want %d", threads, replicas, threads-1)
		}
		out := tensor.NewMatrix(tree.Dim(2), 3)
		for range 2 {
			buf.ResetInto(out)
			ModeMTTKRP(tree, lf, 2, partials, buf, part)
			buf.Reduce(out)
		}
		if buf.own != nil {
			t.Fatalf("T %d: bound launches allocated a matrix of the buffer's own", threads)
		}
		if got := bufBytes(buf); got != ap.WorkspaceBytes() {
			t.Fatalf("T %d: the buffer holds %d bytes, its plan's WorkspaceBytes says %d", threads, got, ap.WorkspaceBytes())
		}
		buf.Reset()
		if buf.own == nil || buf.priv[0] != buf.own {
			t.Fatalf("T %d: an unbound Reset did not give thread 0 a slab of the buffer's own", threads)
		}
		hybrid := PlanAccum(censusFor(tree, part, partials.Save, 2), 3, threads, AccumHybrid, 1<<20)
		if got, want := bufBytes(NewOutBufPlanned(hybrid)), hybrid.WorkspaceBytes(); got != want {
			t.Fatalf("T %d: a hybrid buffer holds %d bytes, its plan's WorkspaceBytes says %d", threads, got, want)
		}
	}
}

// bufBytes returns the bytes of b's replicas, shared region and hot slabs.
func bufBytes(b *OutBuf) int64 {
	var n int
	for _, m := range b.priv {
		if m != nil && m != b.own {
			n += len(m.Data)
		}
	}
	return int64(8 * (n + len(b.shared) + len(b.hot)))
}
