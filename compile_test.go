package stef_test

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"stef"
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
	// priv: hybrid and atomic accumulation add shared rows in CAS order,
	// which varies from run to run whatever the model would pick here.
	opts := stef.Options{Rank: 8, MaxIters: 6, Tol: -1, Threads: 4, Accum: "priv"}
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
// planning with an error naming the non-zero and its coordinates.
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
