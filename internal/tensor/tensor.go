// Package tensor provides sparse tensors in coordinate (COO) form, dense
// factor matrices, and synthetic tensor generators used throughout STeF.
//
// A sparse tensor of order d holds its non-zero coordinates as a flat
// []int32 of length nnz*d (row-major: the k-th non-zero occupies
// Inds[k*d : (k+1)*d]) and its values as a []float64 of length nnz.
// Mode lengths are carried in Dims. Coordinates are zero-based.
package tensor

import (
	"fmt"
	"math"
	"runtime"

	"stef/internal/par"
)

// Tensor is a sparse tensor of arbitrary order in coordinate (COO) form.
// The zero value is an empty tensor of order 0; use New or the generators
// in synth.go to construct useful instances.
type Tensor struct {
	// Dims holds the length of each mode. len(Dims) is the tensor order.
	//idx: len=rank elem=dim
	Dims []int
	// Inds holds non-zero coordinates, d per non-zero, row-major.
	//idx: len=bytes elem=dim
	Inds []int32
	// Vals holds one value per non-zero.
	//idx: len=nnz
	Vals []float64
}

// New returns an empty tensor with the given mode lengths and capacity for
// nnzCap non-zeros. It panics if any dimension is non-positive or exceeds
// the int32 coordinate range.
func New(dims []int, nnzCap int) *Tensor {
	for i, n := range dims {
		if n <= 0 {
			panic(fmt.Sprintf("tensor: dimension %d is %d; must be positive", i, n))
		}
		if n > 1<<31-1 {
			panic(fmt.Sprintf("tensor: dimension %d is %d; exceeds int32 range", i, n))
		}
	}
	d := append([]int(nil), dims...)
	return &Tensor{
		Dims: d,
		Inds: make([]int32, 0, nnzCap*len(dims)),
		Vals: make([]float64, 0, nnzCap),
	}
}

// Order returns the number of modes.
func (t *Tensor) Order() int { return len(t.Dims) }

// NNZ returns the number of stored non-zeros.
func (t *Tensor) NNZ() int { return len(t.Vals) }

// Coord returns the coordinates of the k-th non-zero as a subslice of Inds.
// The slice aliases the tensor's storage and must not be retained across
// mutating calls.
func (t *Tensor) Coord(k int) []int32 {
	d := len(t.Dims)
	return t.Inds[k*d : (k+1)*d]
}

// Append adds a non-zero with the given coordinates and value. It panics if
// the coordinate arity does not match the tensor order or a coordinate is
// out of range.
func (t *Tensor) Append(coord []int32, val float64) {
	if len(coord) != len(t.Dims) {
		panic(fmt.Sprintf("tensor: coordinate arity %d does not match order %d", len(coord), len(t.Dims)))
	}
	for m, c := range coord {
		if c < 0 || int(c) >= t.Dims[m] {
			panic(fmt.Sprintf("tensor: coordinate %d out of range for mode %d (length %d)", c, m, t.Dims[m]))
		}
	}
	t.Inds = append(t.Inds, coord...)
	t.Vals = append(t.Vals, val)
}

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	return &Tensor{
		Dims: append([]int(nil), t.Dims...),
		Inds: append([]int32(nil), t.Inds...),
		Vals: append([]float64(nil), t.Vals...),
	}
}

// CheckPerm reports whether perm is a permutation of 0..n-1.
func CheckPerm(perm []int, n int) error {
	if len(perm) != n {
		return fmt.Errorf("permutation length %d, want %d", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			return fmt.Errorf("invalid permutation %v", perm)
		}
		seen[p] = true
	}
	return nil
}

// SortLex sorts the non-zeros lexicographically by coordinate (mode 0 is
// the most significant). Sorting is stable with respect to equal
// coordinates, which should not occur in a valid tensor (see Dedup).
// See PermuteSorted for the sort itself.
func (t *Tensor) SortLex() {
	if t.NNZ() < 2 {
		return
	}
	perm := make([]int, t.Order())
	for m := range perm {
		perm[m] = m
	}
	s := t.PermuteSorted(perm)
	t.Inds, t.Vals = s.Inds, s.Vals
}

// PermuteSorted returns a new tensor whose mode l is the receiver's mode
// perm[l], with its non-zeros sorted as SortLex sorts them. No unsorted
// permuted copy is made: the sort keys come from the receiver's
// coordinates, and the permuted coordinates are gathered once, in sorted
// order. The receiver is not modified. It panics if perm is not a
// permutation of 0..order-1.
//
// When the permuted index space fits in 63 bits (every benchmark profile
// does), each coordinate packs into one uint64 key and the keys are
// radix-sorted (radixSort); otherwise a stable comparator sort is used.
// Both give the same order, equal coordinates in input order. The keys,
// the radix passes and the gather run over runtime.GOMAXPROCS(0) blocks
// of the non-zeros, as frostt.Read parses; the result does not depend on
// the block count.
func (t *Tensor) PermuteSorted(perm []int) *Tensor {
	return t.permuteSorted(perm, runtime.GOMAXPROCS(0))
}

// permuteSorted is PermuteSorted over the given number of blocks (< 1 is
// treated as 1), so that tests can vary it.
func (t *Tensor) permuteSorted(perm []int, blocks int) *Tensor {
	d := t.Order()
	if err := CheckPerm(perm, d); err != nil {
		panic("tensor: " + err.Error())
	}
	blocks = max(blocks, 1)
	nnz := t.NNZ()
	out := &Tensor{
		Dims: make([]int, d),
		Inds: make([]int32, len(t.Inds)),
		Vals: make([]float64, nnz),
	}
	for l, m := range perm {
		out.Dims[l] = t.Dims[m]
	}
	var order []keyPos
	if strides, ok := packStrides(out.Dims); ok && RadixSort {
		order = t.radixOrder(perm, strides, blocks)
	} else {
		order = t.compareOrder(perm)
	}
	par.Blocks(nnz, blocks, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			pos := order[i].pos
			src := t.Inds[int(pos)*d : int(pos+1)*d]
			dst := out.Inds[i*d : (i+1)*d]
			for l, m := range perm {
				dst[l] = src[m]
			}
			out.Vals[i] = t.Vals[pos]
		}
	})
	return out
}

// packStrides returns per-mode strides packing a coordinate into a single
// uint64 key preserving lexicographic order, or ok == false if the index
// space exceeds 63 bits.
func packStrides(dims []int) ([]uint64, bool) {
	d := len(dims)
	strides := make([]uint64, d)
	s := uint64(1)
	for m := d - 1; m >= 0; m-- {
		strides[m] = s
		hi := s * uint64(dims[m])
		if dims[m] != 0 && hi/uint64(dims[m]) != s || hi >= 1<<63 {
			return nil, false
		}
		s = hi
	}
	return strides, true
}

// Dedup sorts the tensor lexicographically and merges duplicate coordinates
// by summing their values. It returns the number of duplicates merged.
func (t *Tensor) Dedup() int {
	t.SortLex()
	d := t.Order()
	nnz := t.NNZ()
	if nnz == 0 {
		return 0
	}
	w := 0
	merged := 0
	for k := 1; k < nnz; k++ {
		if coordEq(t.Inds[w*d:(w+1)*d], t.Inds[k*d:(k+1)*d]) {
			t.Vals[w] += t.Vals[k]
			merged++
			continue
		}
		w++
		if w != k {
			copy(t.Inds[w*d:(w+1)*d], t.Inds[k*d:(k+1)*d])
			t.Vals[w] = t.Vals[k]
		}
	}
	t.Inds = t.Inds[:(w+1)*d]
	t.Vals = t.Vals[:w+1]
	return merged
}

func coordEq(a, b []int32) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Validate checks structural invariants: coordinate ranges, arity and
// (optionally) absence of duplicates when requireSorted is set.
func (t *Tensor) Validate(requireSorted bool) error {
	d := t.Order()
	if d == 0 {
		if len(t.Inds) != 0 || len(t.Vals) != 0 {
			return fmt.Errorf("order-0 tensor with non-zeros")
		}
		return nil
	}
	if len(t.Inds) != len(t.Vals)*d {
		return fmt.Errorf("inds length %d inconsistent with nnz %d and order %d", len(t.Inds), len(t.Vals), d)
	}
	nnz := t.NNZ()
	for k := 0; k < nnz; k++ {
		c := t.Coord(k)
		for m := 0; m < d; m++ {
			if c[m] < 0 || int(c[m]) >= t.Dims[m] {
				return fmt.Errorf("nnz %d: coordinate %d out of range for mode %d (length %d)", k, c[m], m, t.Dims[m])
			}
		}
		if requireSorted && k > 0 {
			prev := t.Coord(k - 1)
			cmp := compareCoords(prev, c)
			if cmp > 0 {
				return fmt.Errorf("nnz %d: not sorted", k)
			}
			if cmp == 0 {
				return fmt.Errorf("nnz %d: duplicate coordinate", k)
			}
		}
	}
	return nil
}

func compareCoords(a, b []int32) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// NormFrobenius returns the Frobenius norm of the tensor, i.e. the square
// root of the sum of squared non-zero values.
func (t *Tensor) NormFrobenius() float64 {
	s := 0.0
	for _, v := range t.Vals {
		s += v * v
	}
	return math.Sqrt(s)
}

// String returns a short human-readable summary such as
// "tensor 100x200x300, nnz=4096".
func (t *Tensor) String() string {
	s := "tensor "
	for i, n := range t.Dims {
		if i > 0 {
			s += "x"
		}
		s += fmt.Sprint(n)
	}
	return fmt.Sprintf("%s, nnz=%d", s, t.NNZ())
}
