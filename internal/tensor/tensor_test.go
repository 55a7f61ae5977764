package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewAndAppend(t *testing.T) {
	tt := New([]int{3, 4, 5}, 2)
	tt.Append([]int32{0, 0, 0}, 1.5)
	tt.Append([]int32{2, 3, 4}, -2.0)
	if tt.NNZ() != 2 || tt.Order() != 3 {
		t.Fatalf("nnz=%d order=%d", tt.NNZ(), tt.Order())
	}
	if c := tt.Coord(1); c[0] != 2 || c[1] != 3 || c[2] != 4 {
		t.Fatalf("coord %v", c)
	}
	if err := tt.Validate(true); err != nil {
		t.Fatal(err)
	}
}

func TestAppendPanicsOutOfRange(t *testing.T) {
	tt := New([]int{2, 2}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tt.Append([]int32{0, 5}, 1)
}

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New([]int{3, 0, 2}, 1)
}

func TestSortLexAndValidate(t *testing.T) {
	tt := New([]int{5, 5}, 4)
	tt.Append([]int32{3, 1}, 1)
	tt.Append([]int32{0, 4}, 2)
	tt.Append([]int32{3, 0}, 3)
	tt.Append([]int32{0, 1}, 4)
	tt.SortLex()
	if err := tt.Validate(true); err != nil {
		t.Fatal(err)
	}
	if tt.Vals[0] != 4 || tt.Vals[1] != 2 || tt.Vals[2] != 3 || tt.Vals[3] != 1 {
		t.Fatalf("sorted values %v", tt.Vals)
	}
}

func TestDedup(t *testing.T) {
	tt := New([]int{4, 4}, 3)
	tt.Append([]int32{1, 1}, 2)
	tt.Append([]int32{0, 0}, 5)
	tt.Append([]int32{1, 1}, 3)
	merged := tt.Dedup()
	if merged != 1 || tt.NNZ() != 2 {
		t.Fatalf("merged=%d nnz=%d", merged, tt.NNZ())
	}
	if tt.Vals[1] != 5 { // (1,1) sorts after (0,0)
		t.Fatalf("vals %v", tt.Vals)
	}
	if tt.Vals[0] != 5 && tt.Vals[1] != 5 {
		t.Fatalf("lost value 5: %v", tt.Vals)
	}
	found := false
	for k := 0; k < tt.NNZ(); k++ {
		c := tt.Coord(k)
		if c[0] == 1 && c[1] == 1 {
			if tt.Vals[k] != 5 {
				t.Fatalf("(1,1) value %g, want 5", tt.Vals[k])
			}
			found = true
		}
	}
	if !found {
		t.Fatal("(1,1) missing after dedup")
	}
}

func TestPermuteSortedRoundTrip(t *testing.T) {
	tt := Random([]int{4, 6, 8, 3}, 50, nil, 9)
	perm := []int{2, 0, 3, 1}
	inv := make([]int, 4)
	for l, m := range perm {
		inv[m] = l
	}
	fwd := tt.PermuteSorted(perm)
	for l, m := range perm {
		if fwd.Dims[l] != tt.Dims[m] {
			t.Fatalf("permuted dims %v from %v under %v", fwd.Dims, tt.Dims, perm)
		}
	}
	if err := fwd.Validate(true); err != nil {
		t.Fatalf("permuted copy not sorted: %v", err)
	}
	// Random returns its non-zeros sorted, so permuting back restores them.
	if back := fwd.PermuteSorted(inv); !sameTensor(back, tt) {
		t.Fatal("PermuteSorted(perm) then PermuteSorted(inverse) changed the tensor")
	}
}

func TestCheckPerm(t *testing.T) {
	if err := CheckPerm([]int{2, 0, 1}, 3); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]int{{0, 0, 1}, {0, 1}, {0, 1, 3}} {
		if err := CheckPerm(bad, 3); err == nil {
			t.Errorf("perm %v accepted", bad)
		}
	}
}

func TestNormFrobenius(t *testing.T) {
	tt := New([]int{2, 2}, 2)
	tt.Append([]int32{0, 0}, 3)
	tt.Append([]int32{1, 1}, 4)
	if got := tt.NormFrobenius(); math.Abs(got-5) > 1e-14 {
		t.Fatalf("norm %g, want 5", got)
	}
}

func TestRandomUniqueSorted(t *testing.T) {
	tt := Random([]int{10, 10, 10}, 300, nil, 4)
	if err := tt.Validate(true); err != nil {
		t.Fatal(err)
	}
	if tt.NNZ() != 300 {
		t.Fatalf("nnz %d, want 300", tt.NNZ())
	}
}

func TestRandomSkewConcentrates(t *testing.T) {
	// Strong Zipf on mode 0 should put far more mass on its hottest index
	// than uniform would. The hot index is *not* 0: skewed modes scatter
	// their samples through a fixed bijection so popularity is decoupled
	// from index order (real tensor ids are not popularity-sorted).
	tt := Random([]int{100, 50, 50}, 2000, []float64{2.5, 0, 0}, 5)
	counts := make([]int, 100)
	for k := 0; k < tt.NNZ(); k++ {
		counts[tt.Coord(k)[0]]++
	}
	hot, max := 0, 0
	for i, c := range counts {
		if c > max {
			hot, max = i, c
		}
	}
	if max < tt.NNZ()/4 {
		t.Errorf("hottest index %d holds only %d/%d non-zeros under skew 2.5", hot, max, tt.NNZ())
	}
}

func TestProfilesGenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("full profile generation in -short mode")
	}
	for _, p := range Profiles() {
		if len(p.Dims) != len(p.Skew) {
			t.Errorf("%s: dims/skew arity mismatch", p.Name)
		}
		if _, err := ProfileByName(p.Name); err != nil {
			t.Errorf("%s: lookup failed", p.Name)
		}
	}
	// Spot-generate two cheap profiles end to end.
	for _, name := range []string{"uber", "vast-2015-mc1-3d"} {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tt := p.Generate()
		if err := tt.Validate(true); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if tt.NNZ() < p.NNZ*9/10 {
			t.Errorf("%s: generated only %d of %d non-zeros", name, tt.NNZ(), p.NNZ)
		}
	}
}

func TestProfileByNameUnknown(t *testing.T) {
	if _, err := ProfileByName("no-such-tensor"); err == nil {
		t.Fatal("expected error")
	}
}

func TestVastProfileHasTwoRootSlices(t *testing.T) {
	p, err := ProfileByName("vast-2015-mc1-3d")
	if err != nil {
		t.Fatal(err)
	}
	tt := p.Generate()
	perm := LengthSortedPerm(tt.Dims)
	if tt.Dims[perm[0]] != 2 {
		t.Fatalf("shortest mode length %d, want 2", tt.Dims[perm[0]])
	}
	// The length-2 mode must be heavily skewed (the paper's 1674%
	// imbalance case): one slice carries > 80% of the non-zeros.
	counts := [2]int{}
	for k := 0; k < tt.NNZ(); k++ {
		counts[tt.Coord(k)[perm[0]]]++
	}
	major := counts[0]
	if counts[1] > major {
		major = counts[1]
	}
	if float64(major) < 0.8*float64(tt.NNZ()) {
		t.Errorf("root slice split %v not skewed enough", counts)
	}
}

func TestModeCountsAndShares(t *testing.T) {
	tt := New([]int{3, 4}, 5)
	tt.Append([]int32{0, 0}, 1)
	tt.Append([]int32{0, 1}, 1)
	tt.Append([]int32{0, 2}, 1)
	tt.Append([]int32{2, 0}, 1)
	counts := tt.ModeCounts(0)
	if counts[0] != 3 || counts[1] != 0 || counts[2] != 1 {
		t.Fatalf("mode-0 counts %v", counts)
	}
	if got := tt.ModeDensity(0); got != 2.0/3 {
		t.Errorf("mode-0 density %g", got)
	}
	if got := tt.TopSliceShare(0); got != 0.75 {
		t.Errorf("mode-0 top share %g", got)
	}
	if got := tt.TopSliceShare(1); got != 0.5 {
		t.Errorf("mode-1 top share %g", got)
	}
}

func TestVastTopSliceShare(t *testing.T) {
	p, err := ProfileByName("vast-2015-mc1-3d")
	if err != nil {
		t.Fatal(err)
	}
	tt := p.Generate()
	if share := tt.TopSliceShare(2); share < 0.85 {
		t.Errorf("vast length-2 mode top share %.3f; want the paper's ~0.94 skew", share)
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3, 4)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 || m.Row(1)[2] != 7 {
		t.Fatal("Set/At/Row inconsistent")
	}
	c := m.Clone()
	c.Set(0, 0, 1)
	if m.At(0, 0) != 0 {
		t.Fatal("Clone aliases storage")
	}
	m.Zero()
	if m.At(1, 2) != 0 {
		t.Fatal("Zero failed")
	}
}

func TestRandomFactorsDeterministic(t *testing.T) {
	a := RandomFactors([]int{4, 3}, 4, 5)
	b := RandomFactors([]int{4, 3}, 4, 5)
	for m := range a {
		if a[m].MaxAbsDiff(b[m]) != 0 {
			t.Fatal("same seed produced different matrices")
		}
	}
}

func TestRandomFactorsShapes(t *testing.T) {
	fs := RandomFactors([]int{3, 7, 2}, 5, 1)
	for m, n := range []int{3, 7, 2} {
		if fs[m].Rows != n || fs[m].Cols != 5 {
			t.Fatalf("factor %d shape %dx%d", m, fs[m].Rows, fs[m].Cols)
		}
	}
}

func TestSortLexQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := []int{1 + rng.Intn(8), 1 + rng.Intn(8), 1 + rng.Intn(8)}
		space := dims[0] * dims[1] * dims[2]
		nnz := 1 + rng.Intn(minInt(40, space))
		tt := Random(dims, nnz, nil, seed)
		sum := 0.0
		for _, v := range tt.Vals {
			sum += v
		}
		tt.SortLex()
		sum2 := 0.0
		for _, v := range tt.Vals {
			sum2 += v
		}
		return tt.Validate(true) == nil && math.Abs(sum-sum2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}

	// The radix path against the comparator sort, its oracle: the same
	// order under any mode permutation, duplicates in input order (so
	// Dedup's sums are bit-equal), for nnz 0, 1, 2 and up, for keys that
	// use all 63 bits, and at 1, 2, 3 and 8 blocks.
	g := func(seed int64, wide bool, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := make([]int, 2+rng.Intn(4))
		for m := range dims {
			dims[m] = 1 + rng.Intn(8)
		}
		if wide {
			dims = []int{1<<31 - 1, 1<<31 - 1, 2}
		}
		for _, nnz := range []int{0, 1, 2, int(n8) % 40} {
			tt := &Tensor{Dims: dims}
			for k := 0; k < nnz; k++ {
				if k > 0 && rng.Intn(3) == 0 {
					tt.Inds = append(tt.Inds, tt.Coord(rng.Intn(k))...)
				} else {
					for _, n := range dims {
						tt.Inds = append(tt.Inds, int32(rng.Intn(n)))
					}
				}
				tt.Vals = append(tt.Vals, rng.NormFloat64())
			}
			perm := rng.Perm(len(dims))
			radix, cmp := sortBoth(tt, perm, (*Tensor).PermuteSorted)
			if !sameTensor(radix, cmp) || radix.Validate(false) != nil {
				return false
			}
			for _, blocks := range []int{1, 2, 3, 8} {
				r, c := sortBoth(tt, perm, func(t *Tensor, perm []int) *Tensor { return t.permuteSorted(perm, blocks) })
				if !sameTensor(r, cmp) || !sameTensor(c, cmp) {
					return false
				}
			}
			a, b := sortBoth(radix, perm, func(t *Tensor, _ []int) *Tensor {
				c := t.Clone()
				c.Dedup()
				return c
			})
			if !sameTensor(a, b) || a.Validate(true) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// sortBoth applies sort to t once through the radix path and once through
// the comparator sort.
func sortBoth(t *Tensor, perm []int, sort func(*Tensor, []int) *Tensor) (radix, cmp *Tensor) {
	defer func(old bool) { RadixSort = old }(RadixSort)
	RadixSort = true
	radix = sort(t, perm)
	RadixSort = false
	return radix, sort(t, perm)
}

// sameTensor reports whether a and b have equal dims and coordinates and
// bit-identical values.
func sameTensor(a, b *Tensor) bool {
	return slices.Equal(a.Dims, b.Dims) && slices.Equal(a.Inds, b.Inds) &&
		slices.EqualFunc(a.Vals, b.Vals, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
