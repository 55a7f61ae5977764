package csf

import (
	"math/rand"
	"testing"
	"testing/quick"

	"stef/internal/tensor"
)

// TestCountSwappedFibersProperty is the Algorithm 9 correctness property on
// randomized tensors: for any tensor, mode permutation, and thread count,
// the O(nnz) counting pass must equal the level-(d-2) fiber count of the
// actually materialized last-two-modes-swapped CSF.
func TestCountSwappedFibersProperty(t *testing.T) {
	f := func(seed int64, d8, nnz16, t8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 3 + int(d8)%3 // order 3..5
		dims := make([]int, d)
		for i := range dims {
			dims[i] = 1 + rng.Intn(14)
		}
		space := 1
		for _, n := range dims {
			space *= n
		}
		nnz := 1 + int(nnz16)%minInt(200, space)
		tt := tensor.Random(dims, nnz, nil, seed)
		tree := Build(tt, rng.Perm(d))
		if tree.Validate() != nil {
			return false
		}
		swapped := Build(tt, tree.SwappedPerm())
		if swapped.Validate() != nil {
			return false
		}
		threads := 1 + int(t8)%8
		want := int64(swapped.NumFibers(d - 2))
		if tree.CountSwappedFibers(threads) != want {
			return false
		}
		// The planner takes the count as the d2 histogram's total.
		d2, _ := tree.SwappedRowCounts(threads)
		var sum int64
		for _, c := range d2 {
			sum += c
		}
		if sum != want {
			return false
		}
		// SwappedFiberCounts must agree with the materialized tree at every
		// level: the prefix levels are untouched by the swap, level d-2 is
		// the counted quantity, and the leaf level is nnz either way.
		sc := tree.SwappedFiberCounts(threads)
		fc := swapped.FiberCounts()
		for l := 0; l < d; l++ {
			if sc[l] != fc[l] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestCountSwappedFibersDegenerateLastMode pins the edge the stamp array
// depends on: a last-mode dimension of 1 collapses every swapped fiber onto
// one leaf index, so the count must equal the number of level-(d-3)
// children, however many leaves each holds.
func TestCountSwappedFibersDegenerateLastMode(t *testing.T) {
	tt := testTensor(t, []int{5, 6, 1}, 25, 21)
	tree := Build(tt, []int{0, 1, 2})
	swapped := Build(tt, tree.SwappedPerm())
	want := int64(swapped.NumFibers(tree.Order() - 2))
	for _, threads := range []int{1, 3} {
		if got := tree.CountSwappedFibers(threads); got != want {
			t.Errorf("T=%d: swapped fibers %d, want %d", threads, got, want)
		}
	}
}
