package csf

import (
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"stef/internal/tensor"
)

// refBuild is the reference CSF build the block-parallel one is checked
// against: the non-zeros in sort.SliceStable order under perm, and one
// append-grown pass per level over the fiber-change levels.
func refBuild(t *tensor.Tensor, perm []int) *Tree {
	d := t.Order()
	nnz := t.NNZ()
	order := stableOrder(t, perm)
	inds := make([]int32, 0, nnz*d)
	vals := make([]float64, 0, nnz)
	for _, k := range order {
		c := t.Coord(k)
		for _, m := range perm {
			inds = append(inds, c[m])
		}
		vals = append(vals, t.Vals[k])
	}
	tr := &Tree{dims: make([]int, d), perm: append([]int(nil), perm...), fids: make([][]int32, d), ptr: make([][]int64, d), vals: vals}
	for l, m := range perm {
		tr.dims[l] = t.Dims[m]
	}
	chg := make([]int, nnz)
	for k := 1; k < nnz; k++ {
		a, b := inds[(k-1)*d:], inds[k*d:]
		chg[k] = d - 1
		for m := 0; m < d-1; m++ {
			if a[m] != b[m] {
				chg[k] = m
				break
			}
		}
	}
	leaf := make([]int32, nnz)
	for k := range leaf {
		leaf[k] = inds[k*d+d-1]
	}
	tr.fids[d-1] = leaf
	for l := 0; l < d-1; l++ {
		var fids []int32
		ptr := []int64{0}
		children := int64(0)
		for k := 0; k < nnz; k++ {
			if chg[k] <= l {
				if k > 0 {
					ptr = append(ptr, ptr[len(ptr)-1]+children)
					children = 0
				}
				fids = append(fids, inds[k*d+l])
			}
			if l+1 == d-1 || chg[k] <= l+1 {
				children++
			}
		}
		if nnz > 0 {
			ptr = append(ptr, ptr[len(ptr)-1]+children)
		}
		tr.fids[l] = fids
		tr.ptr[l] = ptr
	}
	return tr
}

// stableOrder returns the non-zero positions of t sorted by their
// coordinates under perm, equal coordinates in input order.
func stableOrder(t *tensor.Tensor, perm []int) []int {
	order := make([]int, t.NNZ())
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := t.Coord(order[a]), t.Coord(order[b])
		for _, m := range perm {
			if ca[m] != cb[m] {
				return ca[m] < cb[m]
			}
		}
		return false
	})
	return order
}

// fuzzTensor turns bytes into a small COO tensor and a mode permutation:
// order 3-7, modes of length 1-8, 0-200 non-zeros, about a quarter of them
// repeating an earlier coordinate. Missing bytes read as zero.
func fuzzTensor(data []byte) (*tensor.Tensor, []int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	d := 3 + next()%5
	dims := make([]int, d)
	for m := range dims {
		dims[m] = 1 + next()%8
	}
	nnz := next() % 201
	perm := make([]int, d)
	for m := range perm {
		perm[m] = m
	}
	for i := d - 1; i > 0; i-- {
		j := next() % (i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	tt := &tensor.Tensor{Dims: dims}
	for k := 0; k < nnz; k++ {
		if k > 0 && next()%4 == 0 {
			tt.Inds = append(tt.Inds, tt.Coord(next()%k)...)
		} else {
			for _, n := range dims {
				tt.Inds = append(tt.Inds, int32(next()%n))
			}
		}
		tt.Vals = append(tt.Vals, float64(k)+0.5)
	}
	return tt, perm
}

// FuzzBuild checks the block-parallel build and the derived swapped layout
// against independent references: the build at 1, 2, 3 and 8 blocks
// against refBuild, SwapLastTwo at 1, 2, 3 and 8 threads against a build
// in the swapped order, and both trees against Validate and a ToCOO round
// trip.
//
//	go test -run '^$' -fuzz '^FuzzBuild$' -fuzztime 10s ./internal/csf/
func FuzzBuild(f *testing.F) {
	// Each seed is a header (order, mode lengths, non-zero count) followed
	// by random coordinate and permutation bytes.
	rng := rand.New(rand.NewSource(1))
	seed := func(header ...byte) []byte {
		body := make([]byte, 2000)
		rng.Read(body)
		return append(header, body...)
	}
	f.Add(seed(0, 3, 4, 5, 200))             // order 3
	f.Add(seed(2, 0, 5, 0, 7, 0, 200))       // order 5 with length-1 modes
	f.Add(seed(4, 7, 7, 7, 7, 7, 7, 7, 150)) // order 7
	f.Add(seed(3, 1, 6, 2, 7, 3, 5, 199))    // order 6
	f.Add(seed(1, 1, 1, 1, 1, 120))          // order 4, length-2 modes: many repeats
	f.Add(seed(0, 7, 7, 0, 1))               // one non-zero
	f.Add([]byte{0, 3, 4, 5, 40})            // every coordinate (0, 0, 0)
	f.Add([]byte{0, 0, 0, 0, 0})             // no non-zeros
	f.Fuzz(func(t *testing.T, data []byte) {
		tt, perm := fuzzTensor(data)
		want := refBuild(tt, perm)
		checkTree(t, "reference", want, tt, perm)
		for _, blocks := range []int{1, 2, 3, 8} {
			if got := build(tt, perm, blocks); !Equal(got, want) {
				t.Fatalf("perm %v: build at %d blocks differs from the reference", perm, blocks)
			}
		}
		swapPerm := want.SwappedPerm()
		swapWant := refBuild(tt, swapPerm)
		if !Equal(Build(tt, swapPerm), swapWant) {
			t.Fatalf("perm %v: the swapped build differs from the reference", swapPerm)
		}
		checkTree(t, "swapped reference", swapWant, tt, swapPerm)
		for _, threads := range []int{1, 2, 3, 8} {
			if got := want.SwapLastTwo(threads); !Equal(got, swapWant) {
				t.Fatalf("perm %v: SwapLastTwo(%d) differs from the swapped build", perm, threads)
			}
		}
	})
}

// checkTree checks that tr validates and that ToCOO gives back the
// non-zeros of tt in stable sorted order under perm.
func checkTree(t *testing.T, what string, tr *Tree, tt *tensor.Tensor, perm []int) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	back := tr.ToCOO(tt.Dims)
	for i, k := range stableOrder(tt, perm) {
		c, b := tt.Coord(k), back.Coord(i)
		for m := range c {
			if c[m] != b[m] {
				t.Fatalf("%s: ToCOO non-zero %d at %v, want %v", what, i, b, c)
			}
		}
		if math.Float64bits(back.Vals[i]) != math.Float64bits(tt.Vals[k]) {
			t.Fatalf("%s: ToCOO value %d is %v, want %v", what, i, back.Vals[i], tt.Vals[k])
		}
	}
}

// TestSwapLastTwoProfiles derives the swapped layout of every benchmark
// profile, at a tenth of its non-zeros and with 50 repeated coordinates
// appended, and compares it with a build in the swapped order.
func TestSwapLastTwoProfiles(t *testing.T) {
	for _, p := range tensor.Profiles() {
		p.NNZ /= 10
		tt := p.Generate()
		for k := 0; k < 50; k++ {
			tt.Inds = append(tt.Inds, tt.Coord(k*7%tt.NNZ())...)
			tt.Vals = append(tt.Vals, float64(k))
		}
		base := Build(tt, nil)
		want := Build(tt, base.SwappedPerm())
		for _, threads := range []int{1, 2, 3, 8} {
			if !Equal(base.SwapLastTwo(threads), want) {
				t.Errorf("%s: SwapLastTwo(%d) differs from the swapped build", p.Name, threads)
			}
		}
	}
}

// TestSwapLastTwoOutlivesClosedArena derives the swapped layout from an
// arena-backed tree and closes the arena: the derived tree must not share
// the arena's storage, so it stays valid and equal to the swapped build.
func TestSwapLastTwoOutlivesClosedArena(t *testing.T) {
	tt := tensor.Random([]int{6, 9, 7, 11}, 300, nil, 5)
	base := Build(tt, nil)
	path := filepath.Join(t.TempDir(), "t.stef")
	if err := base.WriteArena(path); err != nil {
		t.Fatalf("WriteArena: %v", err)
	}
	arena, err := OpenArena(path)
	if err != nil {
		t.Fatalf("OpenArena: %v", err)
	}
	swapped := arena.SwapLastTwo(2)
	if err := arena.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if swapped.Backing() != nil {
		t.Fatalf("derived tree has backing %q, want a heap tree", swapped.Backing().Kind())
	}
	if err := swapped.Validate(); err != nil {
		t.Fatalf("derived tree after Close: %v", err)
	}
	if !Equal(swapped, Build(tt, base.SwappedPerm())) {
		t.Fatal("derived tree after Close differs from the swapped build")
	}
}
