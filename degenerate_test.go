package stef_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"stef"
	"stef/internal/kernels"
	"stef/internal/tensor"
)

// withRepeats returns tt with every third non-zero's coordinate appended
// again, with a new value.
func withRepeats(tt *tensor.Tensor) *tensor.Tensor {
	n := tt.NNZ()
	for k := 0; k < n; k += 3 {
		tt.Inds = append(tt.Inds, tt.Coord(k)...)
		tt.Vals = append(tt.Vals, 0.25+float64(k%5))
	}
	return tt
}

// TestEnginesOnDegenerateInputs runs every engine on inputs at the edges
// of what the planner and the CSF build handle, at 1 and 3 threads. On an
// order-2 tensor stef and stef2 must refuse and every baseline must fit.
// Everywhere else every engine's MTTKRP must match kernels.Reference to
// 1e-12 relative, and a 3-iteration solve must return finite fits or a
// *stef.NonFiniteError. A panic fails the case.
func TestEnginesOnDegenerateInputs(t *testing.T) {
	one := tensor.New([]int{4, 5, 6}, 1)
	one.Append([]int32{3, 0, 2}, 1.5)
	cases := []struct {
		name string
		tt   *tensor.Tensor
	}{
		{"order-2", tensor.Random([]int{9, 11}, 40, nil, 1)},
		{"nnz-0", tensor.New([]int{4, 5, 6}, 0)},
		{"nnz-1", one},
		{"length-1-first-mode", tensor.Random([]int{1, 8, 9}, 40, nil, 2)},
		{"length-1-middle-mode", tensor.Random([]int{7, 1, 9, 6}, 60, nil, 3)},
		{"length-1-last-mode", tensor.Random([]int{7, 8, 1}, 40, nil, 4)},
		{"order-6", tensor.Random([]int{3, 4, 3, 5, 2, 4}, 150, nil, 5)},
		{"order-7", tensor.Random([]int{3, 2, 4, 3, 2, 3, 2}, 150, nil, 6)},
		{"repeats-order-3", withRepeats(tensor.Random([]int{6, 7, 8}, 90, nil, 7))},
		{"repeats-order-5", withRepeats(tensor.Random([]int{4, 3, 5, 4, 3}, 120, nil, 8))},
	}
	engines := []string{"stef", "stef2", "splatt-1", "splatt-2", "splatt-all", "adatm", "alto", "taco", "hicoo", "dtree", "naive"}
	const rank = 3
	for _, c := range cases {
		for _, threads := range []int{1, 3} {
			for _, engine := range engines {
				t.Run(fmt.Sprintf("%s/T=%d/%s", c.name, threads, engine), func(t *testing.T) {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("panic: %v", r)
						}
					}()
					opts := stef.Options{Rank: rank, MaxIters: 3, Tol: -1, Threads: threads, Engine: engine, Seed: 11}
					if c.tt.Order() == 2 && (engine == "stef" || engine == "stef2") {
						if _, err := stef.Decompose(c.tt, opts); err == nil {
							t.Fatal("Decompose accepted an order-2 tensor")
						}
						return
					}
					eng, err := stef.NewEngine(c.tt, opts)
					if err != nil {
						t.Fatalf("NewEngine: %v", err)
					}
					factors := tensor.RandomFactors(c.tt.Dims, rank, 12)
					ws := eng.NewWorkspace()
					for pos, m := range eng.UpdateOrder() {
						out := tensor.NewMatrix(c.tt.Dims[m], rank)
						eng.Compute(ws, pos, factors, out)
						if e := relDiff(out, kernels.Reference(c.tt, factors, m)); !(e <= 1e-12) {
							t.Fatalf("mode %d: MTTKRP relative error %g", m, e)
						}
					}
					res, err := stef.Decompose(c.tt, opts)
					var nf *stef.NonFiniteError
					switch {
					case err != nil && (c.tt.Order() == 2 || !errors.As(err, &nf)):
						t.Fatalf("Decompose: %v", err)
					case err == nil:
						for i, fit := range res.Fits {
							if math.IsNaN(fit) || math.IsInf(fit, 0) {
								t.Fatalf("iteration %d: fit %v", i, fit)
							}
						}
					}
				})
			}
		}
	}
}

// relDiff returns ||a-b||_F / ||b||_F, or ||a-b||_F when b is zero.
func relDiff(a, b *tensor.Matrix) float64 {
	var diff, norm float64
	for i, x := range a.Data {
		diff += (x - b.Data[i]) * (x - b.Data[i])
		norm += b.Data[i] * b.Data[i]
	}
	if norm == 0 {
		return math.Sqrt(diff)
	}
	return math.Sqrt(diff / norm)
}
