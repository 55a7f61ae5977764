package tensor

import (
	"math/bits"
	"sort"

	"stef/internal/par"
)

// RadixSort routes the packed-key sorts of SortLex and PermuteSorted
// through the radix sort. Tests turn it off to get the same order from the
// comparator sort, the oracle the radix path is checked against.
var RadixSort = true

// radixBits is the digit width of the LSD radix sort: 2^11 buckets keep a
// pass's write cursors cache-resident, and a 63-bit key needs at most six
// passes.
const radixBits = 11

// keyPos is one non-zero's packed coordinate key and its input position.
// pos is int64, not int32: positions are nnz-scale and a 100M+-nnz tensor
// would silently wrap a 32-bit position.
type keyPos struct {
	key uint64
	pos int64
}

// radixOrder returns the non-zeros' (key, position) pairs sorted by key,
// equal keys in input order. The key of a non-zero packs its coordinates
// under perm: level l holds mode perm[l] with weight strides[l]. The keys
// are computed, and the sort runs, over the given number of blocks.
func (t *Tensor) radixOrder(perm []int, strides []uint64, blocks int) []keyPos {
	d := t.Order()
	weight := make([]uint64, d) // per original mode
	for l, m := range perm {
		weight[m] = strides[l]
	}
	a := make([]keyPos, t.NNZ())
	used := make([]uint64, blocks)
	par.Blocks(len(a), blocks, func(th, lo, hi int) {
		var u uint64
		for k := lo; k < hi; k++ {
			key := uint64(0)
			for m, c := range t.Inds[k*d : (k+1)*d] {
				key += weight[m] * uint64(c)
			}
			a[k] = keyPos{key, int64(k)}
			u |= key
		}
		used[th] = u
	})
	var all uint64
	for _, u := range used {
		all |= u
	}
	return radixSort(a, bits.Len64(all), blocks)
}

// radixSort sorts a stably by key with an LSD radix sort over the low
// keyBits bits, radixBits per digit. Each pass splits a into the given
// number of blocks: every block counts its digits, a prefix sum in
// (digit, block) order turns the counts into write cursors, and every
// block scatters its keys in order. A key thus lands after every key with
// a smaller digit and after the equal-digit keys of the blocks before its
// own, so each pass is stable and the order does not depend on the block
// count. A digit that is the same in every key is skipped. The passes
// ping-pong between a and one buffer of the same length; the result is
// whichever of the two the last pass wrote.
func radixSort(a []keyPos, keyBits, blocks int) []keyPos {
	const buckets = 1 << radixBits
	n := len(a)
	digits := (keyBits + radixBits - 1) / radixBits
	if n < 2 || digits == 0 {
		return a
	}
	cursor := make([][buckets]int, blocks) // per block: digit counts, then write cursors
	var b []keyPos
	for p := 0; p < digits; p++ {
		shift := uint(p * radixBits)
		par.Blocks(n, blocks, func(th, lo, hi int) {
			c := &cursor[th]
			*c = [buckets]int{}
			for _, e := range a[lo:hi] {
				c[e.key>>shift&(buckets-1)]++
			}
		})
		sum, constant := 0, false
		for dg := 0; dg < buckets; dg++ {
			start := sum
			for th := range cursor {
				x := cursor[th][dg]
				cursor[th][dg] = sum
				sum += x
			}
			constant = constant || sum-start == n
		}
		if constant {
			continue
		}
		if b == nil {
			b = make([]keyPos, n)
		}
		par.Blocks(n, blocks, func(th, lo, hi int) {
			c := &cursor[th]
			for _, e := range a[lo:hi] {
				dg := e.key >> shift & (buckets - 1)
				b[c[dg]] = e
				c[dg]++
			}
		})
		a, b = b, a
	}
	return a
}

// compareOrder returns the non-zeros' positions sorted by their
// coordinates under perm, with a stable comparator sort: the path for index
// spaces too large to pack into 63 bits, and the radix path's test oracle.
func (t *Tensor) compareOrder(perm []int) []keyPos {
	d := t.Order()
	order := make([]keyPos, t.NNZ())
	for k := range order {
		order[k].pos = int64(k)
	}
	sort.SliceStable(order, func(a, b int) bool {
		pa, pb := int(order[a].pos)*d, int(order[b].pos)*d
		for _, m := range perm {
			if x, y := t.Inds[pa+m], t.Inds[pb+m]; x != y {
				return x < y
			}
		}
		return false
	})
	return order
}
