package csf

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"stef/internal/tensor"
)

// testTensor returns a small random tensor of the given order.
func testTensor(t *testing.T, dims []int, nnz int, seed int64) *tensor.Tensor {
	t.Helper()
	tt := tensor.Random(dims, nnz, nil, seed)
	if err := tt.Validate(true); err != nil {
		t.Fatalf("generator produced invalid tensor: %v", err)
	}
	return tt
}

func TestBuildValidate(t *testing.T) {
	cases := []struct {
		dims []int
		nnz  int
	}{
		{[]int{5, 7, 9}, 60},
		{[]int{20, 3, 11, 8}, 200},
		{[]int{4, 4, 4, 4, 4}, 100},
		{[]int{100, 1, 50}, 80},
		{[]int{2, 1000, 3}, 500},
	}
	for _, c := range cases {
		tt := testTensor(t, c.dims, c.nnz, 42)
		tr := Build(tt, nil)
		if err := tr.Validate(); err != nil {
			t.Errorf("dims %v: %v", c.dims, err)
		}
		if tr.NNZ() != tt.NNZ() {
			t.Errorf("dims %v: nnz %d, want %d", c.dims, tr.NNZ(), tt.NNZ())
		}
	}
}

func TestBuildIdentityPerm(t *testing.T) {
	tt := testTensor(t, []int{6, 5, 4}, 40, 7)
	tr := Build(tt, []int{0, 1, 2})
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for l, want := range tt.Dims {
		if tr.dims[l] != want {
			t.Errorf("level %d dim %d, want %d", l, tr.dims[l], want)
		}
	}
}

func TestRoundTripCOO(t *testing.T) {
	for _, dims := range [][]int{{5, 9, 7}, {12, 3, 6, 10}, {3, 3, 3, 3, 3}} {
		tt := testTensor(t, dims, 70, int64(len(dims)))
		for trial := 0; trial < 3; trial++ {
			perm := rand.New(rand.NewSource(int64(trial))).Perm(len(dims))
			tr := Build(tt, perm)
			back := tr.ToCOO(tt.Dims)
			back.SortLex()
			orig := tt.Clone()
			orig.SortLex()
			if back.NNZ() != orig.NNZ() {
				t.Fatalf("perm %v: nnz %d, want %d", perm, back.NNZ(), orig.NNZ())
			}
			for k := 0; k < orig.NNZ(); k++ {
				oc, bc := orig.Coord(k), back.Coord(k)
				for m := range oc {
					if oc[m] != bc[m] {
						t.Fatalf("perm %v nnz %d: coord %v, want %v", perm, k, bc, oc)
					}
				}
				if orig.Vals[k] != back.Vals[k] {
					t.Fatalf("perm %v nnz %d: val %g, want %g", perm, k, back.Vals[k], orig.Vals[k])
				}
			}
		}
	}
}

// bruteFiberCount counts distinct prefixes of length l+1 among the permuted
// coordinates — the definitive fiber count at level l.
func bruteFiberCount(tt *tensor.Tensor, perm []int, l int) int64 {
	seen := map[string]struct{}{}
	buf := make([]byte, 0, 4*(l+1))
	for k := 0; k < tt.NNZ(); k++ {
		c := tt.Coord(k)
		buf = buf[:0]
		for m := 0; m <= l; m++ {
			v := c[perm[m]]
			buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		seen[string(buf)] = struct{}{}
	}
	return int64(len(seen))
}

func TestFiberCounts(t *testing.T) {
	tt := testTensor(t, []int{8, 15, 6, 11}, 300, 99)
	perm := tensor.LengthSortedPerm(tt.Dims)
	tr := Build(tt, perm)
	counts := tr.FiberCounts()
	for l := 0; l < tt.Order(); l++ {
		want := bruteFiberCount(tt, perm, l)
		if counts[l] != want {
			t.Errorf("level %d: %d fibers, want %d", l, counts[l], want)
		}
	}
	if counts[tt.Order()-1] != int64(tt.NNZ()) {
		t.Errorf("leaf count %d, want nnz %d", counts[tt.Order()-1], tt.NNZ())
	}
}

func TestCountSwappedFibers(t *testing.T) {
	for _, dims := range [][]int{{7, 9, 11}, {5, 6, 7, 8}, {3, 4, 5, 6, 7}, {2, 400, 3}} {
		for seed := int64(0); seed < 4; seed++ {
			tt := testTensor(t, dims, 150, seed+10)
			tr := Build(tr2Perm(tt), nil)
			_ = tr
			tree := Build(tt, nil)
			swapped := Build(tt, tree.SwappedPerm())
			want := int64(swapped.NumFibers(len(dims) - 2))
			for _, threads := range []int{1, 2, 3, 7} {
				got := tree.CountSwappedFibers(threads)
				if got != want {
					t.Errorf("dims %v seed %d T=%d: swapped fibers %d, want %d", dims, seed, threads, got, want)
				}
			}
		}
	}
}

// tr2Perm is a no-op helper kept trivial; it exists to exercise Build on an
// already-cloned tensor value.
func tr2Perm(tt *tensor.Tensor) *tensor.Tensor { return tt.Clone() }

// TestSwappedFiberCountsSharesPrefixLevels pins what model.SwappedParams
// assumes of the swapped layout: its fiber counts equal the base tree's at
// levels 0..d-3 and at the leaves, and Algorithm 9's count at level d-2.
func TestSwappedFiberCountsSharesPrefixLevels(t *testing.T) {
	tt := testTensor(t, []int{6, 7, 8, 9}, 250, 5)
	tree := Build(tt, nil)
	sc := tree.SwapLastTwo(3).FiberCounts()
	fc := tree.FiberCounts()
	d := tree.Order()
	for l := 0; l < d-2; l++ {
		if sc[l] != fc[l] {
			t.Errorf("level %d: swapped count %d != original %d", l, sc[l], fc[l])
		}
	}
	if want := tree.CountSwappedFibers(3); sc[d-2] != want {
		t.Errorf("level %d: swapped count %d, want Algorithm 9's %d", d-2, sc[d-2], want)
	}
	if sc[d-1] != int64(tree.NNZ()) {
		t.Errorf("leaf level count %d, want %d", sc[d-1], tree.NNZ())
	}
}

func TestAvgFiberLen(t *testing.T) {
	tt := testTensor(t, []int{4, 5, 6}, 80, 3)
	tr := Build(tt, nil)
	for l := 0; l < 2; l++ {
		want := float64(tr.NumFibers(l+1)) / float64(tr.NumFibers(l))
		if got := tr.AvgFiberLen(l); got != want {
			t.Errorf("level %d: avg fiber len %g, want %g", l, got, want)
		}
	}
}

func TestBytesAccounting(t *testing.T) {
	tt := testTensor(t, []int{5, 6, 7}, 50, 1)
	tr := Build(tt, nil)
	want := int64(0)
	for l := 0; l < 3; l++ {
		want += int64(len(tr.fids[l])) * 4
		if tr.ptr[l] != nil {
			want += int64(len(tr.ptr[l])) * 8
		}
	}
	want += int64(len(tr.vals)) * 8
	if got := tr.Bytes(); got != want {
		t.Errorf("Bytes() = %d, want %d", got, want)
	}
}

func TestWalkLeavesOrder(t *testing.T) {
	tt := testTensor(t, []int{5, 5, 5, 5}, 60, 8)
	tr := Build(tt, nil)
	prev := -1
	n := 0
	tr.WalkLeaves(func(path []int64, k int) {
		if k != prev+1 {
			t.Fatalf("leaf order broken: got %d after %d", k, prev)
		}
		prev = k
		n++
		for l := 0; l < tr.Order()-1; l++ {
			lo, hi := tr.ptr[l][path[l]], tr.ptr[l][path[l]+1]
			if path[l+1] < lo || path[l+1] >= hi {
				t.Fatalf("leaf %d: path level %d node %d outside parent range [%d,%d)", k, l+1, path[l+1], lo, hi)
			}
		}
	})
	if n != tr.NNZ() {
		t.Fatalf("walked %d leaves, want %d", n, tr.NNZ())
	}
}

// TestBuildRandomizedQuick property-tests CSF construction: for random
// small tensors and random permutations, the tree validates and round-trips.
func TestBuildRandomizedQuick(t *testing.T) {
	f := func(seed int64, d8, nnz16 uint8) bool {
		d := 3 + int(d8)%3 // order 3..5
		dims := make([]int, d)
		rng := rand.New(rand.NewSource(seed))
		for i := range dims {
			dims[i] = 1 + rng.Intn(12)
		}
		space := 1
		for _, n := range dims {
			space *= n
		}
		nnz := 1 + int(nnz16)%minInt(64, space)
		tt := tensor.Random(dims, nnz, nil, seed)
		perm := rng.Perm(d)
		tr := Build(tt, perm)
		if tr.Validate() != nil {
			return false
		}
		back := tr.ToCOO(tt.Dims)
		back.SortLex()
		orig := tt.Clone()
		orig.SortLex()
		if back.NNZ() != orig.NNZ() {
			return false
		}
		for k := 0; k < orig.NNZ(); k++ {
			if orig.Vals[k] != back.Vals[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestStats(t *testing.T) {
	tt := testTensor(t, []int{4, 9, 16}, 120, 6)
	tr := Build(tt, nil)
	st := tr.Stats()
	if len(st) != 3 {
		t.Fatalf("%d levels", len(st))
	}
	for l, s := range st {
		if s.Level != l || s.Mode != tr.perm[l] || s.Fibers != tr.NumFibers(l) {
			t.Errorf("level %d stats inconsistent: %+v", l, s)
		}
		if l < 2 {
			if s.MaxFiberLen < 1 {
				t.Errorf("level %d max fiber length %d", l, s.MaxFiberLen)
			}
			if s.AvgFiberLen > float64(s.MaxFiberLen) {
				t.Errorf("level %d avg %g exceeds max %d", l, s.AvgFiberLen, s.MaxFiberLen)
			}
		}
	}
	var sb strings.Builder
	tr.WriteStats(&sb)
	if !strings.Contains(sb.String(), "fibers") {
		t.Error("WriteStats missing header")
	}
}

func TestLengthSortedPermIsSorted(t *testing.T) {
	dims := []int{50, 3, 20, 3, 7}
	perm := tensor.LengthSortedPerm(dims)
	got := make([]int, len(dims))
	for l, m := range perm {
		got[l] = dims[m]
	}
	if !sort.IntsAreSorted(got) {
		t.Fatalf("length-sorted perm %v yields lengths %v", perm, got)
	}
}
