package stef_test

import (
	"fmt"
	"math"
	"testing"

	"stef"
	"stef/internal/tensor"
)

// TestEveryEngineComputesIntoItsFactor holds every engine NewEngine
// accepts to the cpd.Engine alias contract that RunWith relies on: at T =
// 1, 2 and 3, over two full ALS sweeps, Compute into factors[order[pos]]
// gives the bits of Compute into a fresh, NaN-filled matrix. After each
// position both factor sets take the MTTKRP, scaled by its largest
// magnitude, as their new factor, so later positions — and the caches of
// dtree and adatm — see factors that changed as a solve's do. taco hands
// out slices to its workers dynamically, so its sums take a different
// order from one call to the next at T > 1; there the two must agree to
// 1e-12 relative to the largest element, and bit for bit at T = 1.
func TestEveryEngineComputesIntoItsFactor(t *testing.T) {
	tt := tensor.Random([]int{9, 11, 13, 7}, 700, []float64{1.5, 0, 1.2, 0}, 3)
	const rank = 5
	for _, name := range []string{"stef", "stef2", "splatt-1", "splatt-2", "splatt-all", "adatm", "alto", "taco", "hicoo", "dtree", "naive"} {
		for _, threads := range []int{1, 2, 3} {
			eng, err := stef.NewEngine(tt, stef.Options{Engine: name, Rank: rank, Threads: threads})
			if err != nil {
				t.Fatalf("%s T=%d: %v", name, threads, err)
			}
			aliased := tensor.RandomFactors(tt.Dims, rank, 11)
			apart := make([]*tensor.Matrix, len(aliased))
			for m, f := range aliased {
				apart[m] = f.Clone()
			}
			wsAliased, wsApart := eng.NewWorkspace(), eng.NewWorkspace()
			wsAliased.Reset()
			wsApart.Reset()
			for sweep := 0; sweep < 2; sweep++ {
				for pos, m := range eng.UpdateOrder() {
					ctx := fmt.Sprintf("%s T=%d sweep %d position %d (mode %d)", name, threads, sweep, pos, m)
					fresh := tensor.NewMatrix(tt.Dims[m], rank)
					for i := range fresh.Data {
						fresh.Data[i] = math.NaN()
					}
					eng.Compute(wsApart, pos, apart, fresh)
					eng.Compute(wsAliased, pos, aliased, aliased[m])
					tol := 0.0
					if name == "taco" && threads > 1 {
						tol = 1e-12 * maxAbs(fresh)
					}
					for i, v := range fresh.Data {
						got := aliased[m].Data[i]
						if math.Float64bits(got) != math.Float64bits(v) && !(math.Abs(got-v) <= tol) {
							t.Fatalf("%s: element %d computed into its factor is %v, into a fresh matrix %v", ctx, i, got, v)
						}
					}
					apart[m].CopyFrom(fresh)
					rescale(aliased[m])
					rescale(apart[m])
				}
			}
		}
	}
}

// maxAbs returns the largest magnitude in f.
func maxAbs(f *tensor.Matrix) float64 {
	top := 0.0
	for _, v := range f.Data {
		top = math.Max(top, math.Abs(v))
	}
	return top
}

// rescale divides f by its largest magnitude (when non-zero), keeping the
// factors of a multi-sweep test at a scale a solve would.
func rescale(f *tensor.Matrix) {
	top := maxAbs(f)
	if top == 0 {
		return
	}
	for i := range f.Data {
		f.Data[i] /= top
	}
}
