package stef_test

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"stef"
	"stef/internal/csf"
	"stef/internal/kernels"
	"stef/internal/tensor"
)

// TestCompileExposesDiagnostics pins the satellite fix: the compiled handle
// must surface the plan's Table II accounting and configuration search
// trace, which the old NewEngine discarded.
func TestCompileExposesDiagnostics(t *testing.T) {
	tt := tensor.Random([]int{8, 40, 60}, 1200, nil, 3)
	c, err := stef.Compile(tt, stef.Options{Rank: 8, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	plan := c.Plan()
	if plan == nil {
		t.Fatal("stef engine compiled without a plan")
	}
	if len(plan.AllConfigs) == 0 {
		t.Fatal("plan lost its configuration search trace")
	}
	if plan.CSFBytes <= 0 || plan.FactorBytes <= 0 {
		t.Fatalf("plan lost Table II accounting: csf=%d factors=%d", plan.CSFBytes, plan.FactorBytes)
	}
	if c.Engine().Name() != "stef" {
		t.Fatalf("engine name %q", c.Engine().Name())
	}
	// Baseline engines do not plan; the handle must say so rather than lie.
	b, err := stef.Compile(tt, stef.Options{Rank: 8, Engine: "splatt-all"})
	if err != nil {
		t.Fatal(err)
	}
	if b.Plan() != nil {
		t.Fatal("splatt-all reported a STeF plan")
	}
}

// TestCompiledConcurrentDecompose drives one compiled handle from many
// goroutines at once (run under -race in scripts/check.sh). Same-seed solves
// must be bit-identical — proof the shared plan is read-only and every solve
// got its own workspace.
func TestCompiledConcurrentDecompose(t *testing.T) {
	tt := tensor.Random([]int{14, 18, 22}, 900, nil, 7)
	for _, engine := range []string{"stef", "stef2", "splatt-all", "adatm", "dtree"} {
		t.Run(engine, func(t *testing.T) {
			c, err := stef.Compile(tt, stef.Options{Rank: 4, MaxIters: 5, Tol: -1, Threads: 2, Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			const workers = 8
			results := make([]*stef.Result, workers)
			errs := make([]error, workers)
			var wg sync.WaitGroup
			wg.Add(workers)
			for i := 0; i < workers; i++ {
				go func(i int) {
					defer wg.Done()
					// Workers i and i+4 share a seed; the pairs must agree.
					results[i], errs[i] = c.DecomposeSeed(int64(i % 4))
				}(i)
			}
			wg.Wait()
			for i := 0; i < workers; i++ {
				if errs[i] != nil {
					t.Fatalf("worker %d: %v", i, errs[i])
				}
			}
			for i := 0; i < 4; i++ {
				a, b := results[i], results[i+4]
				if a.FinalFit() != b.FinalFit() {
					t.Fatalf("seed %d: concurrent solves diverged: fit %.12f vs %.12f", i, a.FinalFit(), b.FinalFit())
				}
				for m := range a.Factors {
					if diff := a.Factors[m].MaxAbsDiff(b.Factors[m]); diff != 0 {
						t.Fatalf("seed %d mode %d: factors differ by %g", i, m, diff)
					}
				}
			}
		})
	}
}

// TestThreadedDenseUpdateDeterministic pins the contract of the
// row-parallel dense update: on a fixed thread count, same-seed solves
// are bit-identical whether they run one after another or concurrently on
// one handle (run under -race in scripts/check.sh), and they fit the
// tensor as well as the one-thread solve, whose reductions run in another
// order, to within 1e-9.
func TestThreadedDenseUpdateDeterministic(t *testing.T) {
	tt := tensor.Random([]int{40, 300, 25}, 4000, nil, 13)
	opts := stef.Options{Rank: 8, MaxIters: 6, Tol: -1, Threads: 4}
	c, err := stef.Compile(tt, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.DecomposeSeed(3)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	results := make([]*stef.Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.DecomposeSeed(3)
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		for it, f := range res.Fits {
			if math.Float64bits(f) != math.Float64bits(want.Fits[it]) {
				t.Fatalf("worker %d: fit after iteration %d is %.17g, the first solve's %.17g", i, it+1, f, want.Fits[it])
			}
		}
		for m := range res.Factors {
			if diff := res.Factors[m].MaxAbsDiff(want.Factors[m]); diff != 0 {
				t.Fatalf("worker %d mode %d: factors differ by %g", i, m, diff)
			}
		}
	}

	opts.Threads = 1
	one, err := stef.Compile(tt, opts)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := one.DecomposeSeed(3)
	if err != nil {
		t.Fatal(err)
	}
	for it, f := range serial.Fits {
		if d := math.Abs(f - want.Fits[it]); !(d <= 1e-9) {
			t.Fatalf("fit after iteration %d: %.12g on 4 threads, %.12g on 1", it+1, want.Fits[it], f)
		}
	}
}

// TestDefaultAccumulationDeterministic pins the accumulation rule on a
// skewed two-thread plan: every non-root level whose two copies fit the
// privatization cap is privatized, so same-seed solves give the same
// factors bit for bit. Where the planner weighed strategies by modeled
// cost, this input's level 1 took the hybrid strategy and added its
// shared rows with CAS in an order that varies from run to run.
func TestDefaultAccumulationDeterministic(t *testing.T) {
	p, err := tensor.ProfileByName("delicious-3d")
	if err != nil {
		t.Fatal(err)
	}
	p.NNZ /= 30
	p.Seed++
	c, err := stef.Compile(p.Generate(), stef.Options{Rank: 8, Threads: 2, MaxIters: 2, Tol: -1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for u, ap := range c.Plan().Accum {
		if ap != nil && ap.Strategy != kernels.AccumPriv {
			t.Fatalf("level %d planned %v, want priv", u, ap)
		}
	}
	var want *stef.Result
	for i := 0; i < 4; i++ {
		res, err := c.Decompose()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = res
			continue
		}
		for m := range res.Factors {
			for k, v := range res.Factors[m].Data {
				if math.Float64bits(v) != math.Float64bits(want.Factors[m].Data[k]) {
					t.Fatalf("solve %d mode %d entry %d: %v, the first solve's %v", i, m, k, v, want.Factors[m].Data[k])
				}
			}
		}
	}
}

// TestCompiledDecomposeBestDeterministic checks DecomposeBest picks exactly
// the best sequential result even though restarts run in parallel.
func TestCompiledDecomposeBestDeterministic(t *testing.T) {
	tt := tensor.Random([]int{10, 12, 14}, 600, nil, 11)
	c, err := stef.Compile(tt, stef.Options{Rank: 3, MaxIters: 6, Tol: -1, Seed: 30, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	const restarts = 4
	wantFit := math.Inf(-1)
	for i := 0; i < restarts; i++ {
		res, err := c.DecomposeSeed(30 + int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if res.FinalFit() > wantFit {
			wantFit = res.FinalFit()
		}
	}
	best, err := c.DecomposeBest(restarts)
	if err != nil {
		t.Fatal(err)
	}
	if best.FinalFit() != wantFit {
		t.Fatalf("DecomposeBest fit %.12f, want best sequential fit %.12f", best.FinalFit(), wantFit)
	}
}

// TestCompileWithReorderUnpermutes verifies each solve of a reordered
// compile maps its factors back to the original index space.
func TestCompileWithReorderUnpermutes(t *testing.T) {
	tt := tensor.Random([]int{10, 12, 14}, 700, []float64{1.5, 0, 0}, 6)
	plain, err := stef.Decompose(tt, stef.Options{Rank: 4, MaxIters: 8, Tol: -1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	c, err := stef.Compile(tt, stef.Options{Rank: 4, MaxIters: 8, Tol: -1, Seed: 5, Reorder: "lexi"})
	if err != nil {
		t.Fatal(err)
	}
	re, err := c.Decompose()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(re.FinalFit()-plain.FinalFit()) > 0.05 {
		t.Errorf("reordered fit %.4f vs plain %.4f", re.FinalFit(), plain.FinalFit())
	}
	for m, f := range re.Factors {
		if f.Rows != tt.Dims[m] {
			t.Fatalf("factor %d has %d rows, want %d", m, f.Rows, tt.Dims[m])
		}
	}
}

// TestCompileRejectsNonFinite loads a .tns file holding one NaN or ±Inf
// value and requires both compile entry points, Compile on the loaded
// tensor and CompileTree on its reopened arena, to refuse it before
// planning with an error naming the non-zero and its coordinates. A file
// of finite values whose sum of squares overflows is refused too, with an
// error naming the overflow.
func TestCompileRejectsNonFinite(t *testing.T) {
	opts := stef.Options{Rank: 2, MaxIters: 2}
	for _, c := range []struct {
		entry, val, want string
	}{
		{"Compile", "nan", "non-zero 2 at zero-based coordinates [1 2 0] has non-finite value NaN"},
		{"Compile", "inf", "non-zero 2 at zero-based coordinates [1 2 0] has non-finite value +Inf"},
		{"Compile", "-inf", "non-zero 2 at zero-based coordinates [1 2 0] has non-finite value -Inf"},
		{"CompileTree", "nan", "at zero-based coordinates [1 2 0] has non-finite value NaN"},
		{"CompileTree", "inf", "at zero-based coordinates [1 2 0] has non-finite value +Inf"},
		{"CompileTree", "-inf", "at zero-based coordinates [1 2 0] has non-finite value -Inf"},
		{"Compile", "1e200", "the sum of squares of the 4 values overflows float64"},
		{"CompileTree", "1e200", "the sum of squares of the 4 values overflows float64"},
	} {
		t.Run(c.entry+"/"+c.val, func(t *testing.T) {
			dir := t.TempDir()
			tns := filepath.Join(dir, "x.tns")
			body := "1 1 1 1.5\n1 2 3 2.0\n2 3 1 " + c.val + "\n3 4 2 -0.5\n"
			if err := os.WriteFile(tns, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			tt, err := stef.LoadTensor(tns)
			if err != nil {
				t.Fatalf("LoadTensor: %v", err)
			}
			if c.entry == "Compile" {
				_, err = stef.Compile(tt, opts)
			} else {
				arena := filepath.Join(dir, "x.stef")
				if err := stef.SaveArena(tt, arena); err != nil {
					t.Fatalf("SaveArena: %v", err)
				}
				tree, err2 := stef.OpenArena(arena)
				if err2 != nil {
					t.Fatalf("OpenArena: %v", err2)
				}
				defer tree.Close()
				_, err = stef.CompileTree(tree, opts)
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%s error = %v, want one containing %q", c.entry, err, c.want)
			}
		})
	}
}

// TestPlanAndNewEngineNormalizeLikeCompile holds the other entry points to
// Compile's option handling: Plan plans exactly what Compile would,
// reordering included, and Plan and NewEngine reject what Compile rejects.
// NewEngine also rejects any Reorder, since its engine works in the
// caller's index space.
func TestPlanAndNewEngineNormalizeLikeCompile(t *testing.T) {
	uber, err := stef.Benchmark("uber")
	if err != nil {
		t.Fatal(err)
	}
	nan := uber.Clone()
	nan.Vals[7] = math.NaN()
	_, compileErr := stef.Compile(nan, stef.Options{})
	if compileErr == nil {
		t.Fatal("Compile accepted a NaN value")
	}
	huge := uber.Clone()
	for k := 0; k < 2000; k++ {
		huge.Vals[k] = 1e200
	}
	_, overflowErr := stef.Compile(huge, stef.Options{})
	if overflowErr == nil {
		t.Fatal("Compile accepted values whose sum of squares overflows")
	}
	plan := func(tt *tensor.Tensor, opts stef.Options) func() error {
		return func() error { _, err := stef.Plan(tt, opts); return err }
	}
	engine := func(tt *tensor.Tensor, opts stef.Options) func() error {
		return func() error { _, err := stef.NewEngine(tt, opts); return err }
	}
	for _, c := range []struct {
		name string
		run  func() error
		want string // substring of the wanted error; "" wants success
	}{
		{"plan-lexi-equals-compile", func() error {
			opts := stef.Options{Rank: 8, Threads: 2, Reorder: "lexi"}
			c, err := stef.Compile(uber, opts)
			if err != nil {
				return err
			}
			p, err := stef.Plan(uber, opts)
			if err != nil {
				return err
			}
			if !csf.Equal(p.Tree, c.Plan().Tree) || !reflect.DeepEqual(p.Config, c.Plan().Config) {
				return errors.New("Plan's tree or configuration differs from Compile's")
			}
			return nil
		}, ""},
		{"plan-unknown-reorder", plan(uber, stef.Options{Reorder: "bogus"}), `unknown reordering "bogus"`},
		{"plan-unknown-engine", plan(uber, stef.Options{Engine: "bogus"}), `unknown engine "bogus"`},
		{"plan-baseline-engine", plan(uber, stef.Options{Engine: "splatt-1"}), `engine "splatt-1" does not plan`},
		{"plan-non-finite", plan(nan, stef.Options{}), compileErr.Error()},
		{"engine-reorder", engine(uber, stef.Options{Reorder: "lexi"}), `reordering "lexi" needs Compile`},
		{"engine-non-finite", engine(nan, stef.Options{}), compileErr.Error()},
		{"plan-overflow", plan(huge, stef.Options{}), overflowErr.Error()},
		{"engine-overflow", engine(huge, stef.Options{}), overflowErr.Error()},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := c.run()
			switch {
			case c.want == "" && err != nil:
				t.Fatal(err)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Fatalf("error = %v, want one containing %q", err, c.want)
			}
		})
	}
}

// TestDecomposeNonFiniteFitIsTypedError solves an exactly rank-1 tensor
// whose ||X||² is finite but whose ||X||² + ||M||² is not: the fit
// overflows on finite factors, and the facade must return the solve's
// *NonFiniteError, reachable with errors.As, rather than NaN fits.
func TestDecomposeNonFiniteFitIsTypedError(t *testing.T) {
	tt := tensor.New([]int{4, 5, 6}, 0)
	for i := int32(0); i < 4; i++ {
		for j := int32(0); j < 5; j++ {
			for k := int32(0); k < 6; k++ {
				tt.Append([]int32{i, j, k}, float64(1+i)*float64(2+j)*float64(3+k))
			}
		}
	}
	scale := 1.2e154 / tt.NormFrobenius()
	for k := range tt.Vals {
		tt.Vals[k] *= scale
	}
	res, err := stef.Decompose(tt, stef.Options{Rank: 1, MaxIters: 3, Tol: -1})
	var nf *stef.NonFiniteError
	if !errors.As(err, &nf) || !nf.Fit || nf.Iter != 0 {
		t.Fatalf("Decompose = %v, %v; want a NonFiniteError for the fit of iteration 0", res, err)
	}
}
