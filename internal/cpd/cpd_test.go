package cpd

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"stef/internal/tensor"
)

// rankKTensor builds a dense-ish sparse tensor that is exactly rank k, so
// CPD with rank >= k should reach fit ~1.
func rankKTensor(dims []int, k int, seed int64) *tensor.Tensor {
	factors := tensor.RandomFactors(dims, k, seed)
	t := tensor.New(dims, 0)
	d := len(dims)
	coord := make([]int32, d)
	var rec func(m int)
	rec = func(m int) {
		if m == d {
			v := 0.0
			for r := 0; r < k; r++ {
				p := 1.0
				for mm := 0; mm < d; mm++ {
					p *= factors[mm].At(int(coord[mm]), r)
				}
				v += p
			}
			t.Append(coord, v)
			return
		}
		for i := 0; i < dims[m]; i++ {
			coord[m] = int32(i)
			rec(m + 1)
		}
	}
	rec(0)
	return t
}

func TestNaiveCPDRecoversLowRank(t *testing.T) {
	tt := rankKTensor([]int{6, 5, 4}, 2, 11)
	res, err := Run(tt.Dims, tt.NormFrobenius(), NaiveEngine(tt), Options{Rank: 3, MaxIters: 60, Tol: 1e-9, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalFit() < 0.999 {
		t.Fatalf("fit %.5f on an exactly rank-2 tensor; fits: %v", res.FinalFit(), res.Fits)
	}
}

func TestFitMonotoneNonDecreasing(t *testing.T) {
	tt := tensor.Random([]int{8, 9, 10}, 300, nil, 3)
	res, err := Run(tt.Dims, tt.NormFrobenius(), NaiveEngine(tt), Options{Rank: 4, MaxIters: 15, Tol: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Fits); i++ {
		if res.Fits[i] < res.Fits[i-1]-1e-8 {
			t.Fatalf("fit decreased: %v", res.Fits)
		}
	}
}

func TestConvergenceStopsEarly(t *testing.T) {
	tt := rankKTensor([]int{5, 5, 5}, 1, 2)
	res, err := Run(tt.Dims, tt.NormFrobenius(), NaiveEngine(tt), Options{Rank: 2, MaxIters: 100, Tol: 1e-7, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("expected convergence on a rank-1 tensor")
	}
	if res.Iters >= 100 {
		t.Fatalf("did not stop early: %d iters", res.Iters)
	}
}

// badOrderEngine wraps an engine and reports a non-permutation update
// order, to exercise the driver's validation.
type badOrderEngine struct{ Engine }

func (badOrderEngine) UpdateOrder() []int { return []int{0, 0, 2} }

func TestRunRejectsBadOrder(t *testing.T) {
	tt := tensor.Random([]int{4, 4, 4}, 20, nil, 1)
	eng := badOrderEngine{NaiveEngine(tt)}
	if _, err := Run(tt.Dims, tt.NormFrobenius(), eng, Options{Rank: 2}); err == nil {
		t.Fatal("expected error for invalid update order")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}
	o.fill()
	if o.MaxIters != 50 || o.Rank != 16 || o.Tol != 1e-5 {
		t.Fatalf("unexpected defaults: %+v", o)
	}
}

func TestResultFinalFitEmpty(t *testing.T) {
	r := &Result{}
	if !math.IsNaN(r.FinalFit()) {
		t.Fatal("empty result should have NaN fit")
	}
}

func TestRegularizationStabilises(t *testing.T) {
	// Rank-3 decomposition of a rank-1 tensor makes V singular; with
	// ridge regularization the run must stay finite and still fit well.
	tt := rankKTensor([]int{5, 5, 5}, 1, 8)
	res, err := Run(tt.Dims, tt.NormFrobenius(), NaiveEngine(tt),
		Options{Rank: 3, MaxIters: 30, Tol: -1, Seed: 1, Regularization: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	for m, f := range res.Factors {
		for _, v := range f.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("mode %d produced non-finite factor", m)
			}
		}
	}
	if res.FinalFit() < 0.99 {
		t.Fatalf("regularised fit %.4f", res.FinalFit())
	}
}

func TestTimeBudgetStopsEarly(t *testing.T) {
	tt := tensor.Random([]int{20, 25, 30}, 3000, nil, 9)
	res, err := Run(tt.Dims, tt.NormFrobenius(), NaiveEngine(tt),
		Options{Rank: 8, MaxIters: 10000, Tol: -1, Seed: 1, TimeBudget: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters >= 10000 {
		t.Fatalf("time budget ignored: %d iterations", res.Iters)
	}
	if res.Iters < 1 {
		t.Fatal("no iterations completed")
	}
}

// TestFitMatchesBruteForce validates the Gram-based fit identity against a
// dense reconstruction of the model over every cell of a small tensor.
func TestFitMatchesBruteForce(t *testing.T) {
	dims := []int{4, 5, 3}
	tt := tensor.Random(dims, 30, nil, 6)
	normX := tt.NormFrobenius()
	res, err := Run(dims, normX, NaiveEngine(tt), Options{Rank: 3, MaxIters: 7, Tol: -1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Brute force: residual² = Σ_cells (X[c] - model(c))².
	vals := map[[3]int32]float64{}
	for k := 0; k < tt.NNZ(); k++ {
		c := tt.Coord(k)
		vals[[3]int32{c[0], c[1], c[2]}] = tt.Vals[k]
	}
	resid2 := 0.0
	for i := int32(0); i < int32(dims[0]); i++ {
		for j := int32(0); j < int32(dims[1]); j++ {
			for k := int32(0); k < int32(dims[2]); k++ {
				x := vals[[3]int32{i, j, k}]
				m := res.Predict([]int32{i, j, k})
				resid2 += (x - m) * (x - m)
			}
		}
	}
	wantFit := 1 - math.Sqrt(resid2)/normX
	if got := res.FinalFit(); math.Abs(got-wantFit) > 1e-10 {
		t.Fatalf("fit identity %.12f vs brute force %.12f", got, wantFit)
	}
}

func TestWarmStart(t *testing.T) {
	tt := rankKTensor([]int{6, 5, 4}, 2, 11)
	normX := tt.NormFrobenius()
	first, err := Run(tt.Dims, normX, NaiveEngine(tt), Options{Rank: 2, MaxIters: 60, Tol: 1e-10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if first.FinalFit() < 0.999 {
		t.Skipf("cold run did not converge (fit %.4f)", first.FinalFit())
	}
	// Warm-starting from the converged factors must converge immediately.
	warm, err := Run(tt.Dims, normX, NaiveEngine(tt),
		Options{Rank: 2, MaxIters: 60, Tol: 1e-8, InitialFactors: first.Factors})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iters > 3 {
		t.Fatalf("warm start took %d iterations", warm.Iters)
	}
	if warm.FinalFit() < first.FinalFit()-1e-6 {
		t.Fatalf("warm fit %.6f below cold fit %.6f", warm.FinalFit(), first.FinalFit())
	}
}

func TestWarmStartShapeErrors(t *testing.T) {
	tt := tensor.Random([]int{4, 5, 6}, 30, nil, 1)
	bad := tensor.RandomFactors([]int{4, 5}, 2, 1)
	if _, err := Run(tt.Dims, 1, NaiveEngine(tt), Options{Rank: 2, InitialFactors: bad}); err == nil {
		t.Fatal("wrong arity accepted")
	}
	bad2 := tensor.RandomFactors([]int{4, 5, 7}, 2, 1)
	if _, err := Run(tt.Dims, 1, NaiveEngine(tt), Options{Rank: 2, InitialFactors: bad2}); err == nil {
		t.Fatal("wrong shape accepted")
	}
}

func TestLambdaAbsorbsScale(t *testing.T) {
	// A tensor scaled by 1000 should converge to the same fit; lambda
	// absorbs the magnitude.
	tt := rankKTensor([]int{5, 4, 3}, 2, 9)
	scaled := tt.Clone()
	for i := range scaled.Vals {
		scaled.Vals[i] *= 1000
	}
	res, err := Run(scaled.Dims, scaled.NormFrobenius(), NaiveEngine(scaled), Options{Rank: 2, MaxIters: 60, Tol: 1e-10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalFit() < 0.999 {
		t.Fatalf("fit %.5f on scaled rank-2 tensor", res.FinalFit())
	}
	maxL := 0.0
	for _, l := range res.Lambda {
		if l > maxL {
			maxL = l
		}
	}
	if maxL < 10 {
		t.Fatalf("lambda %v did not absorb the x1000 scale", res.Lambda)
	}
}

// poisonEngine wraps an engine and writes v into one element of the
// MTTKRP output of its at-th Compute call (iteration·order + position).
type poisonEngine struct {
	Engine
	at, calls int
	v         float64
}

func (e *poisonEngine) Compute(ws Workspace, pos int, factors []*tensor.Matrix, out *tensor.Matrix) {
	e.Engine.Compute(ws, pos, factors, out)
	if e.calls == e.at {
		out.Data[len(out.Data)/2] = e.v
	}
	e.calls++
}

// TestNonFiniteSolveIsTypedError poisons one MTTKRP output with +Inf or
// NaN at a chosen iteration and mode, the last mode of the last iteration
// included, and requires a *NonFiniteError naming that iteration and mode
// instead of a later mode's Cholesky error or a NaN fit. A fit that goes
// non-finite on finite factors (here through an infinite ‖X‖) is reported
// the same way. An unpoisoned solve through the wrapper keeps its bits.
func TestNonFiniteSolveIsTypedError(t *testing.T) {
	tt := tensor.Random([]int{8, 9, 10}, 300, nil, 3)
	opts := Options{Rank: 4, MaxIters: 3, Tol: -1, Seed: 1}
	plain, err := Run(tt.Dims, tt.NormFrobenius(), NaiveEngine(tt), opts)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Run(tt.Dims, tt.NormFrobenius(), &poisonEngine{Engine: NaiveEngine(tt), at: -1}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range plain.Fits {
		if math.Float64bits(clean.Fits[i]) != math.Float64bits(f) {
			t.Fatalf("unpoisoned fits %v, want %v", clean.Fits, plain.Fits)
		}
	}
	for _, c := range []struct {
		iter, mode int
		v          float64
	}{
		{0, 0, math.NaN()},
		{0, 1, math.Inf(1)},
		{1, 2, math.Inf(-1)},
		{2, 0, math.NaN()},
		{2, 2, math.NaN()},
		{2, 2, math.Inf(1)},
	} {
		eng := &poisonEngine{Engine: NaiveEngine(tt), at: 3*c.iter + c.mode, v: c.v}
		res, err := Run(tt.Dims, tt.NormFrobenius(), eng, opts)
		var nf *NonFiniteError
		if !errors.As(err, &nf) || nf.Iter != c.iter || nf.Mode != c.mode || nf.Fit {
			t.Fatalf("%v at iteration %d mode %d: result %v, error %v; want a factor NonFiniteError there", c.v, c.iter, c.mode, res, err)
		}
	}
	_, err = Run(tt.Dims, math.Inf(1), NaiveEngine(tt), opts)
	var nf *NonFiniteError
	if !errors.As(err, &nf) || nf.Iter != 0 || nf.Mode != 2 || !nf.Fit {
		t.Fatalf("infinite norm: error %v, want a fit NonFiniteError at iteration 0 mode 2", err)
	}
}

// TestRunRejectsNegativeMaxIters pins the typed failure: a negative
// iteration count is an error, not a panic in the fits' allocation.
func TestRunRejectsNegativeMaxIters(t *testing.T) {
	tt := tensor.Random([]int{5, 6, 7}, 60, nil, 1)
	_, err := Run(tt.Dims, tt.NormFrobenius(), NaiveEngine(tt), Options{Rank: 2, MaxIters: -3})
	if err == nil || !strings.Contains(err.Error(), "MaxIters -3") {
		t.Fatalf("Run with MaxIters -3 returned %v, want an error naming MaxIters", err)
	}
}
