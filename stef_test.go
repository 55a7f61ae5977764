package stef_test

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"stef"
	"stef/internal/frostt"
	"stef/internal/tensor"
)

func TestDecomposeDefaultEngine(t *testing.T) {
	tt := tensor.Random([]int{12, 15, 18}, 800, nil, 4)
	res, err := stef.Decompose(tt, stef.Options{Rank: 4, MaxIters: 6, Tol: -1, Threads: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 6 {
		t.Fatalf("ran %d iterations, want 6", res.Iters)
	}
	if math.IsNaN(res.FinalFit()) || res.FinalFit() <= 0 {
		t.Fatalf("bad final fit %g", res.FinalFit())
	}
	for m, f := range res.Factors {
		if f.Rows != tt.Dims[m] || f.Cols != 4 {
			t.Fatalf("factor %d shape %dx%d", m, f.Rows, f.Cols)
		}
	}
}

// TestNegativeMaxItersIsAnError holds every facade entry point to an
// error naming MaxIters, on every engine, where a negative count used to
// reach a make with a negative capacity and panic.
func TestNegativeMaxItersIsAnError(t *testing.T) {
	tt := tensor.Random([]int{8, 10, 12}, 400, nil, 2)
	for _, engine := range []string{"stef", "splatt-1", "naive"} {
		opts := stef.Options{Rank: 3, MaxIters: -1, Engine: engine}
		if _, err := stef.Decompose(tt, opts); err == nil || !strings.Contains(err.Error(), "MaxIters -1") {
			t.Errorf("%s: Decompose with MaxIters -1 returned %v, want an error naming MaxIters", engine, err)
		}
		if _, err := stef.DecomposeBest(tt, opts, 2); err == nil || !strings.Contains(err.Error(), "MaxIters -1") {
			t.Errorf("%s: DecomposeBest with MaxIters -1 returned %v, want an error naming MaxIters", engine, err)
		}
		if _, err := stef.Compile(tt, opts); err == nil || !strings.Contains(err.Error(), "MaxIters -1") {
			t.Errorf("%s: Compile with MaxIters -1 returned %v, want an error naming MaxIters", engine, err)
		}
	}
}

func TestDecomposeEveryEngineName(t *testing.T) {
	tt := tensor.Random([]int{8, 10, 12}, 400, nil, 2)
	for _, name := range []string{"", "stef", "stef2", "splatt-1", "splatt-2", "splatt-all", "adatm", "alto", "taco", "hicoo", "dtree", "naive"} {
		res, err := stef.Decompose(tt, stef.Options{Rank: 3, MaxIters: 3, Tol: -1, Engine: name, Threads: 2})
		if err != nil {
			t.Fatalf("engine %q: %v", name, err)
		}
		if len(res.Fits) != 3 {
			t.Fatalf("engine %q: %d fits", name, len(res.Fits))
		}
	}
	if _, err := stef.Decompose(tt, stef.Options{Engine: "bogus"}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

// TestDecomposeWithReorder verifies that reordering is transparent: the
// returned factors live in the original index space and the fit matches a
// plain run to within ALS-trajectory noise.
func TestDecomposeWithReorder(t *testing.T) {
	tt := tensor.Random([]int{10, 12, 14}, 700, []float64{1.5, 0, 0}, 6)
	plain, err := stef.Decompose(tt, stef.Options{Rank: 4, MaxIters: 8, Tol: -1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"lexi", "bfsmcs"} {
		re, err := stef.Decompose(tt, stef.Options{Rank: 4, MaxIters: 8, Tol: -1, Seed: 5, Reorder: mode})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if math.Abs(re.FinalFit()-plain.FinalFit()) > 0.05 {
			t.Errorf("%s: fit %.4f vs plain %.4f", mode, re.FinalFit(), plain.FinalFit())
		}
		for m, f := range re.Factors {
			if f.Rows != tt.Dims[m] {
				t.Fatalf("%s: factor %d has %d rows, want %d", mode, m, f.Rows, tt.Dims[m])
			}
		}
	}
	if _, err := stef.Decompose(tt, stef.Options{Reorder: "bogus"}); err == nil {
		t.Fatal("unknown reordering accepted")
	}
}

func TestPlanFacade(t *testing.T) {
	tt := tensor.Random([]int{6, 30, 50}, 900, nil, 3)
	plan, err := stef.Plan(tt, stef.Options{Rank: 8, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Tree == nil || len(plan.Config.Save) != 3 {
		t.Fatal("incomplete plan")
	}
}

func TestDecomposeBest(t *testing.T) {
	tt := tensor.Random([]int{10, 12, 14}, 500, nil, 8)
	single, err := stef.Decompose(tt, stef.Options{Rank: 3, MaxIters: 6, Tol: -1, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	best, err := stef.DecomposeBest(tt, stef.Options{Rank: 3, MaxIters: 6, Tol: -1, Seed: 20}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if best.FinalFit() < single.FinalFit()-1e-12 {
		t.Fatalf("best-of-3 fit %.6f below single-run fit %.6f", best.FinalFit(), single.FinalFit())
	}
	if _, err := stef.DecomposeBest(tt, stef.Options{Rank: 2, MaxIters: 1, Tol: -1}, 0); err != nil {
		t.Fatalf("restarts=0 should clamp to 1: %v", err)
	}
}

func TestLoadTensorAndBenchmark(t *testing.T) {
	tt, err := stef.Benchmark("uber")
	if err != nil {
		t.Fatal(err)
	}
	if tt.Order() != 4 {
		t.Fatalf("uber order %d", tt.Order())
	}
	path := filepath.Join(t.TempDir(), "x.tns")
	if err := frostt.WriteFile(path, tt); err != nil {
		t.Fatal(err)
	}
	back, err := stef.LoadTensor(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != tt.NNZ() {
		t.Fatalf("round trip nnz %d, want %d", back.NNZ(), tt.NNZ())
	}
	if _, err := stef.Benchmark("bogus"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}
