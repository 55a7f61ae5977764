package csf

import (
	"slices"

	"stef/internal/par"
)

// CountSwappedFibers implements Algorithm 9 of the paper: it computes the
// number of level-(d-2) fibers the CSF would have if its last two modes
// were swapped, without building the swapped tree. That count is the only
// quantity the data-movement model needs that the existing CSF does not
// already contain (levels 0..d-3 are unchanged by the swap).
//
// A fiber in the swapped order is a distinct (prefix, leaf-index) pair,
// where prefix is the path through levels 0..d-3. The pass runs with t
// threads, each owning a contiguous block of level-(d-3) nodes; since a
// pair's prefix node is owned by exactly one thread, no pair is counted
// twice. Each thread keeps an observed[last-mode-length] stamp array, as in
// the paper's pseudocode, trading memory for a single O(nnz) scan.
func (tr *Tree) CountSwappedFibers(t int) int64 {
	d := tr.Order()
	if d < 3 {
		panic("csf: CountSwappedFibers needs order >= 3")
	}
	gLevel := d - 3 // grandparents of leaves
	numG := len(tr.fids[gLevel])
	counts := make([]int64, max(t, 1))
	par.Blocks(numG, t, func(th, lo, hi int) {
		observed := make([]int64, tr.dims[d-1])
		for i := range observed {
			observed[i] = -1
		}
		var c int64
		for g := lo; g < hi; g++ {
			for p := tr.ptr[gLevel][g]; p < tr.ptr[gLevel][g+1]; p++ {
				for k := tr.ptr[d-2][p]; k < tr.ptr[d-2][p+1]; k++ {
					leaf := tr.fids[d-1][k]
					if observed[leaf] != int64(g) {
						observed[leaf] = int64(g)
						c++
					}
				}
			}
		}
		counts[th] = c
	})
	total := int64(0)
	for _, c := range counts {
		total += c
	}
	return total
}

// SwapLastTwo returns the tree's layout with its last two levels
// exchanged: exactly the tree Build(x, tr.SwappedPerm()) returns for the
// tensor x that tr holds, derived from tr instead of rebuilt from x.
//
// Levels 0..d-3 do not change. Within each level-(d-3) node, a group, tr
// stores the leaves in (level d-2 id, leaf id) order, equal coordinates in
// input order. A stable sort of the group by leaf id therefore gives the
// swapped (leaf id, level d-2 id) order with equal coordinates still in
// input order, which is the order Build sorts them into. A group keeps its
// leaf positions, since the swap only permutes coordinates within a path.
//
// The pass runs with t threads over blocks of groups, as CountSwappedFibers
// does. The first half counts each group's distinct leaf ids, its fibers
// at the swapped level d-2 (the Algorithm 9 quantity), and a prefix sum
// over the counts places every group's new level-(d-2) nodes. The second
// half counting-sorts each group's leaves by leaf id into place, with a
// per-thread cursor per leaf id.
//
// The result shares levels 0..d-3 with tr when tr is heap-backed, and
// copies them when tr is arena-backed, so closing tr's arena leaves the
// result valid. Like CountSwappedFibers, it panics on a tree of order
// below 3.
func (tr *Tree) SwapLastTwo(t int) *Tree {
	d := tr.Order()
	if d < 3 {
		panic("csf: SwapLastTwo needs order >= 3")
	}
	nnz := tr.NNZ64()
	gPtr, pFid, pPtr, leaf := tr.ptr[d-3], tr.fids[d-2], tr.ptr[d-2], tr.fids[d-1]
	numG := len(tr.fids[d-3])
	dims := slices.Clone(tr.dims)
	dims[d-2], dims[d-1] = dims[d-1], dims[d-2]
	out := &Tree{dims: dims, perm: tr.SwappedPerm(), fids: make([][]int32, d), ptr: make([][]int64, d)}
	copy(out.fids, tr.fids[:d-2])
	copy(out.ptr, tr.ptr[:d-3])
	if tr.backing != nil {
		for l := 0; l < d-2; l++ {
			out.fids[l] = slices.Clone(out.fids[l])
		}
		for l := 0; l < d-3; l++ {
			out.ptr[l] = slices.Clone(out.ptr[l])
		}
	}

	// groupPtr[g+1] first counts group g's distinct leaf ids, then the
	// prefix sum makes groupPtr the new level d-3's child pointers.
	groupPtr := make([]int64, numG+1)
	cursors := make([][]int64, max(t, 1))
	par.Blocks(numG, t, func(th, lo, hi int) {
		stamp := make([]int64, tr.dims[d-1])
		for i := range stamp {
			stamp[i] = -1
		}
		for g := lo; g < hi; g++ {
			var n int64
			for k := pPtr[gPtr[g]]; k < pPtr[gPtr[g+1]]; k++ {
				if b := leaf[k]; stamp[b] != int64(g) {
					stamp[b] = int64(g)
					n++
				}
			}
			groupPtr[g+1] = n
		}
		clear(stamp)
		cursors[th] = stamp
	})
	for g := 0; g < numG; g++ {
		groupPtr[g+1] += groupPtr[g]
	}
	m := groupPtr[numG]
	swFid := make([]int32, m)
	swPtr := make([]int64, m+1)
	swPtr[m] = nnz
	swLeaf := make([]int32, nnz)
	swVals := make([]float64, nnz)
	par.Blocks(numG, t, func(th, lo, hi int) {
		// cursor[b] counts the group's leaves with id b, then holds the
		// position the next of them goes to; it is all zero between groups.
		cursor := cursors[th]
		var ids []int32
		for g := lo; g < hi; g++ {
			k0, k1 := pPtr[gPtr[g]], pPtr[gPtr[g+1]]
			ids = ids[:0]
			for k := k0; k < k1; k++ {
				b := leaf[k]
				if cursor[b] == 0 {
					ids = append(ids, b)
				}
				cursor[b]++
			}
			slices.Sort(ids)
			n, off := groupPtr[g], k0
			for _, b := range ids {
				swFid[n] = b
				swPtr[n] = off
				off, cursor[b] = off+cursor[b], off
				n++
			}
			for p := gPtr[g]; p < gPtr[g+1]; p++ {
				a := pFid[p]
				for k := pPtr[p]; k < pPtr[p+1]; k++ {
					w := cursor[leaf[k]]
					cursor[leaf[k]] = w + 1
					swLeaf[w] = a
					swVals[w] = tr.vals[k]
				}
			}
			for _, b := range ids {
				cursor[b] = 0
			}
		}
	})
	out.ptr[d-3] = groupPtr
	out.fids[d-2], out.ptr[d-2] = swFid, swPtr
	out.fids[d-1], out.vals = swLeaf, swVals
	return out
}
