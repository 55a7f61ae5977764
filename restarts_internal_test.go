package stef

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"stef/internal/cpd"
	"stef/internal/tensor"
)

// countingEngine wraps an engine and records how many solves are in
// flight. A solve of MaxIters iterations with a negative Tol makes exactly
// perSolve Compute calls on its workspace, so a workspace's call count
// marks where each of its solves starts and ends. Each call sleeps, so
// solves that could overlap do.
type countingEngine struct {
	cpd.Engine
	perSolve int

	mu             sync.Mutex
	calls          map[cpd.Workspace]int
	inFlight, peak int
}

func (e *countingEngine) Compute(ws cpd.Workspace, pos int, factors []*tensor.Matrix, out *tensor.Matrix) {
	e.mu.Lock()
	n := e.calls[ws]
	e.calls[ws] = n + 1
	if n%e.perSolve == 0 {
		e.inFlight++
		e.peak = max(e.peak, e.inFlight)
	}
	e.mu.Unlock()
	time.Sleep(time.Millisecond)
	e.Engine.Compute(ws, pos, factors, out)
	if (n+1)%e.perSolve == 0 {
		e.mu.Lock()
		e.inFlight--
		e.mu.Unlock()
	}
}

// TestDecomposeBestBoundsSolvesInFlight checks DecomposeBest runs at most
// GOMAXPROCS/Threads solves at once, and still returns exactly the best
// of the same solves run one after another.
func TestDecomposeBestBoundsSolvesInFlight(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	tt := tensor.Random([]int{10, 12, 14}, 600, nil, 11)
	const iters, restarts = 3, 7
	for _, threads := range []int{1, 2, 3} {
		c, err := Compile(tt, Options{Rank: 4, MaxIters: iters, Tol: -1, Seed: 30, Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		eng := &countingEngine{Engine: c.solver.Engine(), perSolve: iters * tt.Order(), calls: map[cpd.Workspace]int{}}
		c.solver = cpd.NewSolver(eng)
		var want *Result
		for i := 0; i < restarts; i++ {
			res, err := c.DecomposeSeed(30 + int64(i))
			if err != nil {
				t.Fatal(err)
			}
			if want == nil || res.FinalFit() > want.FinalFit() {
				want = res
			}
		}
		eng.peak = 0
		got, err := c.DecomposeBest(restarts)
		if err != nil {
			t.Fatal(err)
		}
		if workers := max(1, 4/threads); eng.peak > workers {
			t.Errorf("T %d: %d solves in flight at once, want at most %d", threads, eng.peak, workers)
		}
		same := func(what string, a, b []float64) {
			for i := range b {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Fatalf("T %d: %s %d is %v, the sequential best has %v", threads, what, i, a[i], b[i])
				}
			}
		}
		same("fit", got.Fits, want.Fits)
		same("lambda", got.Lambda, want.Lambda)
		for m := range want.Factors {
			same("factor entry", got.Factors[m].Data, want.Factors[m].Data)
		}
	}
}
