package kernels

import (
	"testing"

	"stef/internal/csf"
	"stef/internal/tensor"
)

// TestSubtreeKernelsCoverWholeTree checks that running the sequential
// subtree kernels over consecutive slice ranges reproduces the full MTTKRP
// for every mode and memo subset.
func TestSubtreeKernelsCoverWholeTree(t *testing.T) {
	tt := tensor.Random([]int{9, 12, 15, 7}, 450, []float64{1.4, 0, 0, 0}, 17)
	d := tt.Order()
	tree := csf.Build(tt, nil)
	const rank = 4
	factors := tensor.RandomFactors(tt.Dims, rank, 5)
	lf := LevelFactors(factors, tree.Perm())

	for _, save := range memoSubsets(d) {
		partials := NewPartials(tree, rank, save)
		out0 := tensor.NewMatrix(tree.Dim(0), rank)
		// Root pass in three chunks.
		slices := int64(tree.NumFibers(0))
		for lo := int64(0); lo < slices; lo += 3 {
			hi := lo + 3
			if hi > slices {
				hi = slices
			}
			RootMTTKRPSubtrees(tree, lf, out0, partials, lo, hi)
		}
		want0 := Reference(tt, factors, tree.Perm()[0])
		if diff := out0.MaxAbsDiff(want0); diff > 1e-9*(1+want0.NormFrobenius()) {
			t.Fatalf("save=%v: chunked root diff %g", save, diff)
		}
		for u := 1; u < d; u++ {
			got := tensor.NewMatrix(tree.Dim(u), rank)
			for lo := int64(0); lo < slices; lo += 5 {
				hi := lo + 5
				if hi > slices {
					hi = slices
				}
				ModeMTTKRPSubtrees(tree, lf, u, partials, got, lo, hi)
			}
			want := Reference(tt, factors, tree.Perm()[u])
			if diff := got.MaxAbsDiff(want); diff > 1e-9*(1+want.NormFrobenius()) {
				t.Fatalf("save=%v mode %d: chunked diff %g (src=%d)", save, u, diff, partials.SourceLevel(u))
			}
		}
	}
}

// TestSubtreeRootDisjointRows verifies the property the TACO engine relies
// on: disjoint slice ranges write disjoint output rows in the root pass.
func TestSubtreeRootDisjointRows(t *testing.T) {
	tt := tensor.Random([]int{8, 10, 12}, 300, nil, 9)
	tree := csf.Build(tt, nil)
	const rank = 3
	lf := LevelFactors(tensor.RandomFactors(tt.Dims, rank, 2), tree.Perm())
	noMemo := NoPartials(3)

	full := tensor.NewMatrix(tree.Dim(0), rank)
	RootMTTKRPSubtrees(tree, lf, full, noMemo, 0, int64(tree.NumFibers(0)))

	half := int64(tree.NumFibers(0)) / 2
	a := tensor.NewMatrix(tree.Dim(0), rank)
	b := tensor.NewMatrix(tree.Dim(0), rank)
	RootMTTKRPSubtrees(tree, lf, a, noMemo, 0, half)
	RootMTTKRPSubtrees(tree, lf, b, noMemo, half, int64(tree.NumFibers(0)))
	for i := range full.Data {
		if a.Data[i] != 0 && b.Data[i] != 0 {
			t.Fatalf("element %d written by both halves", i)
		}
		if got := a.Data[i] + b.Data[i]; got != full.Data[i] {
			t.Fatalf("element %d: %g + %g != %g", i, a.Data[i], b.Data[i], full.Data[i])
		}
	}
}
