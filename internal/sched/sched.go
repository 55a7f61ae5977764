// Package sched implements STeF's fine-grained, non-zero-balanced work
// distribution (Algorithm 3 of the paper) and the slice-based partitioning
// used by prior work, together with load-imbalance metrics.
//
// STeF splits the leaf non-zeros evenly across T threads and derives, for
// every CSF level, the node at which each thread starts (the parent chain
// of its first leaf). A node whose leaves span a thread boundary is shared:
// each later thread accumulates its partial result for that node into a
// per-thread boundary replica row instead of the canonical row, and the
// replicas are merged after the parallel section. This avoids both atomics
// and full privatization, exactly as Section III-A describes (the paper
// phrases the same mechanism as "shifting the write location by the thread
// id").
package sched

import (
	"fmt"
	"sort"

	"stef/internal/csf"
)

// Partition holds the per-thread, per-level start positions of a
// non-zero-balanced work distribution over a CSF tree.
type Partition struct {
	// T is the number of threads.
	T int
	// LeafStart[th] is the first leaf (non-zero) of thread th;
	// LeafStart[T] == nnz.
	//idx: len=dim elem=nnz
	LeafStart []int64
	// Start[th][l] is the node index at level l that contains leaf
	// LeafStart[th] (== NumFibers(l) when LeafStart[th] == nnz). Thread
	// th touches nodes Start[th][l] .. Start[th+1][l] inclusive, clamped
	// to its leaf range.
	//idx: len=dim,rank elem=nnz
	Start [][]int64
	// Own[th][l] is the first node at level l owned by thread th: the
	// first node whose subtree begins at or after LeafStart[th]. Thread
	// th owns nodes [Own[th][l], Own[th+1][l]). A thread's first touched
	// node is shared with the previous thread exactly when
	// Own[th][l] == Start[th][l]+1.
	//idx: len=dim,rank elem=nnz
	Own [][]int64
}

// NewPartition computes the Algorithm 3 work distribution for tree with t
// threads. t must be at least 1.
func NewPartition(tree *csf.Tree, t int) *Partition {
	if t < 1 {
		panic(fmt.Sprintf("sched: invalid thread count %d", t))
	}
	d := tree.Order()
	nnz := tree.NNZ64()
	// Build into locals rather than through the struct: the outer slices
	// are local makes of known length t+1, so the th-indexed stores are
	// bounds-check free, and the per-thread start/own rows stay in
	// registers for the level walk.
	leafStart := make([]int64, t+1)
	starts := make([][]int64, t+1)
	owns := make([][]int64, t+1)
	for th := range leafStart {
		leafStart[th] = int64(th) * nnz / int64(t)
		//lint:allow hotpath-alloc partition construction runs once per plan, T+1 small slices
		start := make([]int64, d) //gate:allow escape partition construction runs once per plan, T+1 small slices
		//gate:allow escape partition construction runs once per plan, T+1 small slices
		own := make([]int64, d) //lint:allow hotpath-alloc partition construction runs once per plan
		// Walk the parent chain of the thread's first leaf
		// (find_parent_CSF in Algorithm 3).
		node := leafStart[th]
		start[d-1] = node //gate:allow bounds start/own are sized to the order; d-1 is the leaf level
		own[d-1] = node
		// aligned records whether the boundary leaf is the very first
		// leaf of the subtree rooted at node; only then does the next
		// parent's subtree also start at the boundary.
		aligned := true
		for l := d - 2; l >= 0; l-- {
			if node >= int64(tree.NumFibers(l+1)) { //gate:allow bounds fiber-count lookup indexed by level, sized to the order
				start[l] = int64(tree.NumFibers(l)) //gate:allow bounds fiber-count lookup indexed by level, sized to the order
				node = int64(tree.NumFibers(l))     //gate:allow bounds fiber-count lookup indexed by level, sized to the order
				own[l] = node
				continue
			}
			parent := parentOf(tree.PtrLevel(l), node) //gate:allow bounds pointer level array has order-1 entries; l ranges over internal levels
			start[l] = parent
			// The parent is owned by this thread only if its whole
			// subtree starts exactly at the boundary leaf.
			if aligned && tree.PtrLevel(l)[parent] == node { //gate:allow bounds parent index from binary search over the fiber pointers, data-dependent
				own[l] = parent
			} else {
				own[l] = parent + 1
				aligned = false
			}
			node = parent
		}
		starts[th] = start
		owns[th] = own
	}
	return &Partition{T: t, LeafStart: leafStart, Start: starts, Own: owns}
}

// parentOf returns the index p such that ptr[p] <= child < ptr[p+1].
func parentOf(ptr []int64, child int64) int64 {
	// sort.Search finds the first p with ptr[p+1] > child.
	n := len(ptr) - 1
	p := sort.Search(n, func(i int) bool { return ptr[i+1] > child })
	return int64(p)
}

// SharedStart reports whether thread th's first touched node at level l is
// shared with an earlier thread, i.e. whether its partial result must go to
// the thread's boundary replica row rather than the canonical row.
func (p *Partition) SharedStart(th, l int) bool {
	return p.Own[th][l] != p.Start[th][l]
}

// DeclaredBoundary returns the node id at level l that thread th is
// allowed to accumulate through its boundary replica row, and whether such
// a node exists. Algorithm 3 admits at most one: the thread's first
// touched node, exactly when it is shared with an earlier thread
// (SharedStart). Thread 0 starts every level at node 0 and never shares.
// The shadowtrace oracle in internal/kernels checks every replica write
// against this declaration.
func (p *Partition) DeclaredBoundary(th, l int) (int64, bool) {
	if th <= 0 || th >= p.T || l < 0 || l >= len(p.Start[th]) { //gate:allow bounds cold oracle helper, called once per replica write under shadowtrace only
		return 0, false
	}
	if !p.SharedStart(th, l) { //gate:allow bounds cold oracle helper, called once per replica write under shadowtrace only
		return 0, false
	}
	return p.Start[th][l], true
}

// OwnedRange returns the half-open node range [lo, hi) at level l owned by
// thread th. Every node is owned by exactly one thread.
func (p *Partition) OwnedRange(th, l int) (lo, hi int64) {
	return p.Own[th][l], p.Own[th+1][l]
}

// LeafRange returns the half-open leaf range of thread th.
func (p *Partition) LeafRange(th int) (lo, hi int64) {
	return p.LeafStart[th], p.LeafStart[th+1]
}

// Validate checks the partition invariants against the tree.
//
//lint:allow hotpath-alloc diagnostic validation, error formatting only
func (p *Partition) Validate(tree *csf.Tree) error {
	d := tree.Order()
	for th := 0; th <= p.T; th++ {
		if len(p.Start[th]) != d || len(p.Own[th]) != d {
			return fmt.Errorf("sched: thread %d has wrong level count", th)
		}
		for l := 0; l < d; l++ {
			if p.Start[th][l] < 0 || p.Start[th][l] > int64(tree.NumFibers(l)) {
				return fmt.Errorf("sched: thread %d level %d start %d out of range", th, l, p.Start[th][l])
			}
			if p.Own[th][l] < p.Start[th][l] || p.Own[th][l] > p.Start[th][l]+1 {
				return fmt.Errorf("sched: thread %d level %d own %d inconsistent with start %d", th, l, p.Own[th][l], p.Start[th][l])
			}
			if th > 0 && p.Own[th][l] < p.Own[th-1][l] {
				return fmt.Errorf("sched: owned ranges not monotone at thread %d level %d", th, l)
			}
		}
	}
	if p.LeafStart[p.T] != tree.NNZ64() {
		return fmt.Errorf("sched: last leaf start %d != nnz %d", p.LeafStart[p.T], tree.NNZ())
	}
	for l := 0; l < d; l++ {
		if p.Own[p.T][l] != int64(tree.NumFibers(l)) {
			return fmt.Errorf("sched: level %d owned ranges do not cover all %d nodes (end %d)", l, tree.NumFibers(l), p.Own[p.T][l])
		}
	}
	return nil
}

// SlicePartition is the slice-granular work distribution used by SPLATT and
// AdaTM: each thread gets a contiguous run of root slices. Boundaries[th]
// is the first slice of thread th; Boundaries[T] == number of slices.
type SlicePartition struct {
	T          int
	Boundaries []int64
}

// NewSlicePartitionEqual splits root slices into T runs of (nearly) equal
// slice count, ignoring the non-zero distribution — Figure 2a's scheme.
func NewSlicePartitionEqual(tree *csf.Tree, t int) *SlicePartition {
	if t < 1 {
		panic(fmt.Sprintf("sched: invalid thread count %d", t))
	}
	slices := int64(tree.NumFibers(0))
	b := make([]int64, t+1)
	for th := 0; th <= t; th++ {
		b[th] = int64(th) * slices / int64(t)
	}
	return &SlicePartition{T: t, Boundaries: b}
}

// NewSlicePartitionNNZ splits root slices into T contiguous runs whose
// non-zero counts are as even as slice granularity allows (each boundary is
// placed at the slice whose prefix non-zero count first reaches the ideal
// split). This is the stronger slice-based baseline: it still cannot help
// when there are fewer heavy slices than threads.
func NewSlicePartitionNNZ(tree *csf.Tree, t int) *SlicePartition {
	if t < 1 {
		panic(fmt.Sprintf("sched: invalid thread count %d", t))
	}
	slices := tree.NumFibers(0)
	prefix := sliceNNZPrefix(tree)
	nnz := prefix[slices]
	b := make([]int64, t+1)
	b[t] = int64(slices)
	for th := 1; th < t; th++ {
		target := int64(th) * nnz / int64(t)
		// First boundary s whose preceding slices already hold the
		// ideal share, kept monotone.
		s := sort.Search(slices+1, func(i int) bool { return prefix[i] >= target })
		b[th] = maxI64(int64(s), b[th-1])
	}
	return &SlicePartition{T: t, Boundaries: b}
}

// sliceNNZPrefix returns prefix sums of per-root-slice non-zero counts:
// prefix[s] is the number of leaves before slice s.
func sliceNNZPrefix(tree *csf.Tree) []int64 {
	d := tree.Order()
	slices := tree.NumFibers(0)
	prefix := make([]int64, slices+1)
	for s := 0; s < slices; s++ {
		// Descend the pointer chain to the leaf level to find the
		// slice's leaf extent.
		end := tree.PtrLevel(0)[s+1]
		for l := 1; l < d-1; l++ {
			end = tree.PtrLevel(l)[end]
		}
		prefix[s+1] = end
	}
	return prefix
}

// ToPartition converts the slice partition into the general Partition form
// consumed by the kernels. Slice boundaries are subtree-aligned, so no node
// is shared between threads and Own == Start at every level — the kernels'
// boundary machinery becomes a no-op, which is exactly the semantics of the
// prior work's distribution.
func (sp *SlicePartition) ToPartition(tree *csf.Tree) *Partition {
	d := tree.Order()
	p := &Partition{
		T:         sp.T,
		LeafStart: make([]int64, sp.T+1),
		Start:     make([][]int64, sp.T+1),
		Own:       make([][]int64, sp.T+1),
	}
	for th := 0; th <= sp.T; th++ {
		//lint:allow hotpath-alloc partition conversion runs once per plan
		p.Start[th] = make([]int64, d)
		node := sp.Boundaries[th]
		p.Start[th][0] = node
		for l := 1; l < d; l++ {
			if node >= int64(tree.NumFibers(l-1)) {
				node = int64(tree.NumFibers(l))
			} else {
				node = tree.PtrLevel(l - 1)[node]
			}
			p.Start[th][l] = node
		}
		p.Own[th] = p.Start[th] // aligned: every touched node is owned
		p.LeafStart[th] = p.Start[th][d-1]
	}
	return p
}

// SliceLoads returns the per-thread non-zero counts under the slice
// partition.
func (sp *SlicePartition) SliceLoads(tree *csf.Tree) []int64 {
	prefix := sliceNNZPrefix(tree)
	loads := make([]int64, sp.T)
	for th := 0; th < sp.T; th++ {
		loads[th] = prefix[sp.Boundaries[th+1]] - prefix[sp.Boundaries[th]]
	}
	return loads
}

// Loads returns the per-thread leaf counts of the balanced partition (they
// differ by at most one).
func (p *Partition) Loads() []int64 {
	loads := make([]int64, p.T)
	for th := 0; th < p.T; th++ {
		loads[th] = p.LeafStart[th+1] - p.LeafStart[th]
	}
	return loads
}

// ImbalancePct returns the percentage load imbalance of the given
// per-thread loads: (max/mean - 1) * 100. Zero loads yield 0.
func ImbalancePct(loads []int64) float64 {
	if len(loads) == 0 {
		return 0
	}
	var sum, max int64
	for _, l := range loads {
		sum += l
		if l > max {
			max = l
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(loads))
	return (float64(max)/mean - 1) * 100
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
