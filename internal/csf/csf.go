// Package csf implements the Compressed Sparse Fiber representation of a
// sparse tensor (Smith et al., SPLATT), the mode-ordering heuristics used
// by STeF, and the last-two-mode fiber-counting pass of Algorithm 9.
//
// A CSF tree of depth d stores one level per tensor mode. Level 0 holds the
// root slices; level d-1 holds one node per non-zero, aligned with the
// value array. FidLevel(l)[n] is the tensor index (in the CSF's own level
// order) of node n at level l; PtrLevel(l)[n] .. PtrLevel(l)[n+1] delimit
// n's children at level l+1.
package csf

import (
	"fmt"
	"sync/atomic"

	"stef/internal/tensor"
)

// Tree is a CSF representation of a sparse tensor under a fixed mode
// permutation. The storage is read-only after construction and reachable
// only through the accessor layer (access.go); the level arrays may live
// on the Go heap (Build, ReadFrom) or inside an arena backing (OpenArena),
// and nothing outside this package may depend on which — the csf-backing
// steflint analyzer enforces the seam.
type Tree struct {
	// dims[l] is the length of the mode stored at level l.
	//idx: len=rank elem=dim
	dims []int
	// perm maps CSF level to original tensor mode: level l stores
	// original mode perm[l].
	//idx: len=rank elem=rank
	perm []int
	// fids[l] holds the index of each node at level l.
	//idx: len=rank,nnz elem=fid
	fids [][]int32
	// ptr[l] (for l in 0..d-2) holds len(fids[l])+1 offsets into level
	// l+1. ptr[d-1] is nil.
	//idx: len=rank,nnz elem=nnz
	ptr [][]int64
	// vals holds the non-zero values, aligned with fids[d-1].
	//idx: len=nnz
	vals []float64
	// backing owns the memory behind the level slices when they are views
	// into an arena (nil for heap-backed trees, whose storage the GC owns).
	backing Backing
	// closed is set (atomically) by the first Close on a backed tree; the
	// lifetrace kernel-entry checks read it so a solve against a closed
	// arena fails loudly instead of faulting mid-kernel.
	closed uint32
}

// Backing owns the storage behind a Tree's level arrays. Heap-backed trees
// have no backing (Backing() returns nil); arena-backed trees hold one that
// must be closed when the tree is no longer in use.
type Backing interface {
	// Kind names the backing for diagnostics: "arena-mmap" for a zero-copy
	// file mapping, "arena-heap" for the portable fallback that reads the
	// arena sections into heap slices.
	Kind() string
	// Close releases the resources the backing owns. For an mmap backing
	// every slice taken from the tree is invalid after Close; for heap
	// backings Close is a no-op. Close is idempotent.
	Close() error
}

// Backing returns the tree's storage backing, or nil for heap-backed trees.
func (t *Tree) Backing() Backing { return t.backing }

// Close releases the tree's storage backing. It is a no-op (and returns
// nil) for heap-backed trees, so callers can defer Close unconditionally.
// After Close on an arena-backed tree, no slice previously taken through
// the accessor layer may be used.
func (t *Tree) Close() error {
	if t.backing == nil {
		return nil
	}
	atomic.StoreUint32(&t.closed, 1)
	return t.backing.Close()
}

// Closed reports whether Close has released this tree's backing. Heap
// trees (nil backing) never report closed: their storage is GC-owned and
// stays valid for as long as the tree is reachable.
func (t *Tree) Closed() bool { return atomic.LoadUint32(&t.closed) != 0 }

// Build constructs a CSF tree from t using the given mode permutation
// (perm[l] is the original mode placed at level l; nil means the
// length-sorted heuristic order). The input tensor is not modified.
func Build(t *tensor.Tensor, perm []int) *Tree {
	d := t.Order()
	if d < 2 {
		panic(fmt.Sprintf("csf: order-%d tensor; need at least 2 modes", d))
	}
	if perm == nil {
		perm = tensor.LengthSortedPerm(t.Dims)
	}
	if err := tensor.CheckPerm(perm, d); err != nil {
		panic("csf: " + err.Error())
	}
	pt := t.PermuteSorted(perm)

	nnz := pt.NNZ()
	tr := &Tree{
		dims: pt.Dims,
		perm: append([]int(nil), perm...),
		fids: make([][]int32, d),
		ptr:  make([][]int64, d),
		vals: pt.Vals,
	}
	// chg[k] is the shallowest level whose coordinate differs between
	// non-zeros k-1 and k. A new fiber starts at level l exactly when
	// chg[k] <= l (new-fiber starts are monotone down the tree). chg[0]
	// is defined as 0 so the first non-zero opens a fiber at every level.
	chg := make([]int, nnz)
	for k := 1; k < nnz; k++ {
		a := pt.Inds[(k-1)*d:]
		b := pt.Inds[k*d:]
		c := d - 1
		for m := 0; m < d-1; m++ {
			if a[m] != b[m] {
				c = m
				break
			}
		}
		chg[k] = c
	}
	// Leaf level: one node per non-zero.
	leaf := make([]int32, nnz)
	for k := 0; k < nnz; k++ {
		leaf[k] = pt.Inds[k*d+d-1]
	}
	tr.fids[d-1] = leaf

	for l := 0; l < d-1; l++ {
		var fids []int32
		ptr := []int64{0}
		children := int64(0)
		for k := 0; k < nnz; k++ {
			if chg[k] <= l { // new fiber at this level
				if k > 0 {
					ptr = append(ptr, ptr[len(ptr)-1]+children)
					children = 0
				}
				fids = append(fids, pt.Inds[k*d+l])
			}
			if l+1 == d-1 || chg[k] <= l+1 { // new child below
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

// Order returns the tree depth (tensor order).
func (t *Tree) Order() int { return len(t.dims) }

// NNZ returns the number of non-zeros.
func (t *Tree) NNZ() int { return len(t.vals) }

// NumFibers returns the number of nodes at level l — the paper's m_l.
func (t *Tree) NumFibers(l int) int { return len(t.fids[l]) }

// FiberCounts returns the node count of every level, root to leaf.
func (t *Tree) FiberCounts() []int64 {
	c := make([]int64, t.Order())
	for l := range c {
		c[l] = int64(len(t.fids[l]))
	}
	return c
}

// AvgFiberLen returns the average number of children per node at level l
// (for l < d-1): NumFibers(l+1)/NumFibers(l).
func (t *Tree) AvgFiberLen(l int) float64 {
	if l >= t.Order()-1 {
		panic("csf: AvgFiberLen on leaf level")
	}
	if len(t.fids[l]) == 0 {
		return 0
	}
	return float64(len(t.fids[l+1])) / float64(len(t.fids[l]))
}

// Bytes returns the in-memory footprint of the CSF structure: 4 bytes per
// fiber id, 8 per pointer and 8 per value. Used for Table II accounting.
func (t *Tree) Bytes() int64 {
	b := int64(0)
	for l := 0; l < t.Order(); l++ {
		b += int64(len(t.fids[l])) * 4
		if t.ptr[l] != nil {
			b += int64(len(t.ptr[l])) * 8
		}
	}
	b += int64(len(t.vals)) * 8
	return b
}

// ToCOO reconstructs the tensor in its original mode order. Used by
// round-trip tests and by engines that need a re-ordered copy.
func (t *Tree) ToCOO(origDims []int) *tensor.Tensor {
	d := t.Order()
	nnz := t.NNZ()
	out := tensor.New(origDims, nnz)
	coordCSF := make([]int32, d)
	coordOrig := make([]int32, d)
	t.WalkLeaves(func(path []int64, k int) {
		for l := 0; l < d; l++ {
			coordCSF[l] = t.fids[l][path[l]]
		}
		for l := 0; l < d; l++ {
			coordOrig[t.perm[l]] = coordCSF[l]
		}
		out.Append(coordOrig, t.vals[k])
	})
	return out
}

// WalkLeaves visits every non-zero in storage order, passing the node index
// at each level (path[l] is the node position within level l) and the leaf
// position k. Intended for tests and tools, not hot kernels.
func (t *Tree) WalkLeaves(fn func(path []int64, k int)) {
	d := t.Order()
	path := make([]int64, d)
	var rec func(l int, node int64)
	rec = func(l int, node int64) {
		path[l] = node
		if l == d-1 {
			fn(path, int(node))
			return
		}
		for c := t.ptr[l][node]; c < t.ptr[l][node+1]; c++ {
			rec(l+1, c)
		}
	}
	for n := int64(0); n < int64(len(t.fids[0])); n++ {
		rec(0, n)
	}
}

// Validate checks structural invariants of the tree: pointer monotonicity,
// full coverage of each level by its parent level, and index ranges.
func (t *Tree) Validate() error {
	d := t.Order()
	for l := 0; l < d; l++ {
		for _, f := range t.fids[l] {
			if f < 0 || int(f) >= t.dims[l] {
				return fmt.Errorf("csf: level %d fiber id %d out of range (dim %d)", l, f, t.dims[l])
			}
		}
		if l == d-1 {
			continue
		}
		p := t.ptr[l]
		if len(p) != len(t.fids[l])+1 {
			return fmt.Errorf("csf: level %d ptr length %d, want %d", l, len(p), len(t.fids[l])+1)
		}
		if p[0] != 0 {
			return fmt.Errorf("csf: level %d ptr[0] = %d", l, p[0])
		}
		for n := 0; n < len(p)-1; n++ {
			if p[n+1] <= p[n] {
				return fmt.Errorf("csf: level %d node %d has empty or negative child range", l, n)
			}
		}
		if p[len(p)-1] != int64(len(t.fids[l+1])) {
			return fmt.Errorf("csf: level %d last ptr %d does not cover level %d (%d nodes)", l, p[len(p)-1], l+1, len(t.fids[l+1]))
		}
	}
	if len(t.fids[d-1]) != len(t.vals) {
		return fmt.Errorf("csf: leaf count %d != value count %d", len(t.fids[d-1]), len(t.vals))
	}
	return nil
}

// Equal reports whether two trees have identical structure and values:
// same dims, perm, per-level fiber ids and pointers, and bit-identical
// non-zero values. Backings are not compared — a heap tree and an arena
// view of the same tensor are equal. Intended for tests and tools.
func Equal(a, b *Tree) bool {
	if a.Order() != b.Order() || a.NNZ() != b.NNZ() {
		return false
	}
	d := a.Order()
	for l := 0; l < d; l++ {
		if a.dims[l] != b.dims[l] || a.perm[l] != b.perm[l] {
			return false
		}
		if len(a.fids[l]) != len(b.fids[l]) {
			return false
		}
		for n, f := range a.fids[l] {
			if b.fids[l][n] != f {
				return false
			}
		}
		if (a.ptr[l] == nil) != (b.ptr[l] == nil) || len(a.ptr[l]) != len(b.ptr[l]) {
			return false
		}
		for n, p := range a.ptr[l] {
			if b.ptr[l][n] != p {
				return false
			}
		}
	}
	for k, v := range a.vals {
		if b.vals[k] != v {
			return false
		}
	}
	return true
}

// SwappedPerm returns the tree's mode permutation with the last two levels
// exchanged — the alternative layout considered in Section II-E.
func (t *Tree) SwappedPerm() []int {
	d := t.Order()
	p := append([]int(nil), t.perm...)
	p[d-2], p[d-1] = p[d-1], p[d-2]
	return p
}
