package core_test

import (
	"runtime"
	"testing"

	"stef/internal/core"
	"stef/internal/cpd"
	"stef/internal/tensor"
)

// TestSweepZeroAllocs pins the pooled-workspace contract: once a workspace
// exists, a full MTTKRP sweep (every mode in update order) on one thread
// performs no heap allocation. This is what makes compile-once/solve-many
// cheap in steady state — and it guards the kernel refactors (per-thread
// scratch, closure-free T==1 dispatch) against regressions.
func TestSweepZeroAllocs(t *testing.T) {
	cases := []struct {
		name string
		dims []int
		opts core.Options
	}{
		{"stef-d3", []int{15, 20, 25}, core.Options{Rank: 8, Threads: 1}},
		{"stef-d4", []int{8, 10, 12, 14}, core.Options{Rank: 8, Threads: 1}},
		// The planner memoizes only level 1 here, so the root walk and the
		// walks for modes 2-4 all take the two-level fiber calls.
		{"stef-d5", []int{6, 6, 6, 6, 6}, core.Options{Rank: 8, Threads: 1}},
		// Order 6 takes the same walks, ending in the two-level calls.
		{"stef-d6", []int{3, 4, 5, 6, 7, 8}, core.Options{Rank: 8, Threads: 1}},
		{"stef2-d3", []int{15, 20, 25}, core.Options{Rank: 8, Threads: 1, SecondCSF: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tt := tensor.Random(tc.dims, 900, nil, 21)
			eng, _, err := core.NewEngineFor(tt, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			d := tt.Order()
			order := eng.UpdateOrder()
			factors := tensor.RandomFactors(tt.Dims, tc.opts.Rank, 3)
			outs := make([]*tensor.Matrix, d)
			for pos := 0; pos < d; pos++ {
				outs[pos] = tensor.NewMatrix(tt.Dims[order[pos]], tc.opts.Rank)
			}
			ws := eng.NewWorkspace()
			ws.Reset()
			sweep := func() {
				for pos := 0; pos < d; pos++ {
					eng.Compute(ws, pos, factors, outs[pos])
				}
			}
			sweep() // warm up
			if allocs := testing.AllocsPerRun(10, sweep); allocs != 0 {
				t.Fatalf("steady-state sweep allocates %.1f objects per run, want 0", allocs)
			}
		})
	}
}

// TestSolveIterationsDoNotAllocate compares whole-solve allocation counts at
// two iteration budgets: the delta must be zero, i.e. every allocation in
// cpd.RunWith happens in per-solve setup, none inside the iteration loop.
func TestSolveIterationsDoNotAllocate(t *testing.T) {
	tt := tensor.Random([]int{12, 16, 20}, 800, nil, 5)
	eng, _, err := core.NewEngineFor(tt, core.Options{Rank: 6, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	ws := eng.NewWorkspace()
	dims, normX := tt.Dims, tt.NormFrobenius()
	solve := func(iters int) float64 {
		return testing.AllocsPerRun(3, func() {
			ws.Reset()
			if _, err := cpd.RunWith(dims, normX, eng, ws, cpd.Options{Rank: 6, MaxIters: iters, Tol: -1, Seed: 2}); err != nil {
				t.Fatal(err)
			}
		})
	}
	short := solve(4)
	long := solve(12)
	if long != short {
		t.Fatalf("12-iteration solve allocates %.1f objects vs %.1f for 4 iterations; the extra 8 iterations must not allocate", long, short)
	}
}

// TestSolveIterationsAllocateOnlyLaunchesOnTwoThreads is the two-thread
// form of the pin above, on a one-thread engine so that only the dense
// update runs on two threads: its one par.Blocks launch per mode may
// allocate (the callback, the WaitGroup, one closure per goroutine), but
// no more than 2·d·T objects per iteration.
func TestSolveIterationsAllocateOnlyLaunchesOnTwoThreads(t *testing.T) {
	const threads = 2
	tt := tensor.Random([]int{12, 16, 20}, 800, nil, 5)
	eng, _, err := core.NewEngineFor(tt, core.Options{Rank: 6, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	ws := eng.NewWorkspace()
	dims, normX := tt.Dims, tt.NormFrobenius()
	solve := func(iters int) float64 {
		return testing.AllocsPerRun(3, func() {
			ws.Reset()
			if _, err := cpd.RunWith(dims, normX, eng, ws, cpd.Options{Rank: 6, MaxIters: iters, Tol: -1, Seed: 2, Threads: threads}); err != nil {
				t.Fatal(err)
			}
		})
	}
	short := solve(4)
	long := solve(12)
	perIter := (long - short) / 8
	if limit := float64(2 * len(dims) * threads); perIter > limit {
		t.Fatalf("each extra iteration allocates %.1f objects on %d threads, want at most %.0f (goroutine launches only)", perIter, threads, limit)
	}
}

// TestSeededSolveAllocatesOnlyItsFactors pins a solve's memory by count:
// on a pooled workspace, a seeded solve allocates its factors and nothing
// else of their size. Every MTTKRP goes into the factor it updates, and
// thread 0 accumulates in it, so the bytes a solve allocates beyond its
// factors stay below the smallest dims × R matrix, at T = 1 and 2.
func TestSeededSolveAllocatesOnlyItsFactors(t *testing.T) {
	const rank = 8
	tt := tensor.Random([]int{3000, 4000, 5000}, 6000, []float64{0, 1.2, 1.2}, 9)
	factorBytes, smallest := uint64(0), uint64(0)
	for m, n := range tt.Dims {
		b := uint64(n * rank * 8)
		factorBytes += b
		if m == 0 || b < smallest {
			smallest = b
		}
	}
	for _, threads := range []int{1, 2} {
		eng, _, err := core.NewEngineFor(tt, core.Options{Rank: rank, Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		ws := eng.NewWorkspace()
		solve := func() uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ws.Reset()
			if _, err := cpd.RunWith(tt.Dims, tt.NormFrobenius(), eng, ws, cpd.Options{Rank: rank, MaxIters: 3, Tol: -1, Seed: 4, Threads: threads}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		solve() // warm up
		least := solve()
		for range 2 {
			least = min(least, solve())
		}
		if extra := int64(least) - int64(factorBytes); extra >= int64(smallest) {
			t.Fatalf("T %d: a solve allocates %d bytes, %d beyond its %d bytes of factors; the smallest factor takes %d",
				threads, least, extra, factorBytes, smallest)
		}
	}
}

// TestWorkspaceTypeMismatchPanics pins the diagnostic for handing an engine
// a workspace it did not create.
func TestWorkspaceTypeMismatchPanics(t *testing.T) {
	tt := tensor.Random([]int{6, 7, 8}, 100, nil, 1)
	eng, _, err := core.NewEngineFor(tt, core.Options{Rank: 3, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	naive := cpd.NaiveEngine(tt)
	defer func() {
		if recover() == nil {
			t.Fatal("foreign workspace accepted")
		}
	}()
	out := tensor.NewMatrix(tt.Dims[eng.UpdateOrder()[0]], 3)
	eng.Compute(naive.NewWorkspace(), 0, tensor.RandomFactors(tt.Dims, 3, 1), out)
}
