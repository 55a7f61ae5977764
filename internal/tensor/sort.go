package tensor

import (
	"math/bits"
	"sort"
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
// under perm: level l holds mode perm[l] with weight strides[l].
func (t *Tensor) radixOrder(perm []int, strides []uint64) []keyPos {
	d := t.Order()
	weight := make([]uint64, d) // per original mode
	for l, m := range perm {
		weight[m] = strides[l]
	}
	a := make([]keyPos, t.NNZ())
	var used uint64
	for k := range a {
		key := uint64(0)
		for m, c := range t.Inds[k*d : (k+1)*d] {
			key += weight[m] * uint64(c)
		}
		a[k] = keyPos{key, int64(k)}
		used |= key
	}
	return radixSort(a, bits.Len64(used))
}

// radixSort sorts a stably by key with an LSD radix sort over the low
// keyBits bits, radixBits per digit. A digit that is the same in every key
// is skipped. The passes ping-pong between a and one buffer of the same
// length; the result is whichever of the two the last pass wrote.
func radixSort(a []keyPos, keyBits int) []keyPos {
	const buckets = 1 << radixBits
	n := len(a)
	digits := (keyBits + radixBits - 1) / radixBits
	if n < 2 || digits == 0 {
		return a
	}
	counts := make([][buckets]int, digits)
	for _, e := range a {
		k := e.key
		for p := range counts {
			counts[p][k&(buckets-1)]++
			k >>= radixBits
		}
	}
	var b []keyPos
	for p := range counts {
		c := &counts[p]
		shift := uint(p * radixBits)
		if c[a[0].key>>shift&(buckets-1)] == n {
			continue
		}
		if b == nil {
			b = make([]keyPos, n)
		}
		sum := 0
		for i, x := range c {
			c[i] = sum
			sum += x
		}
		for _, e := range a {
			dg := e.key >> shift & (buckets - 1)
			b[c[dg]] = e
			c[dg]++
		}
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
