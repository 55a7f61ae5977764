package kernels

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"stef/internal/csf"
	"stef/internal/sched"
)

// DefaultHotBudgetElems bounds the per-strategy hot-row footprint
// (T·k·cols elements) when the caller does not supply a budget: half of the
// default 2 MiB cache model, in float64 elements.
const DefaultHotBudgetElems = 1 << 17

// hotWriteFactor is the minimum write count, in multiples of the thread
// count, for a multi-writer row to be worth a dense per-thread replica: a
// replica costs T row clears + T row reads per solve, so a row written
// fewer than ~2T times is cheaper left in the shared buffer.
const hotWriteFactor = 2

// RowWrites is the write census of one non-root MTTKRP output: the result
// of the O(nnz) counting pass that walks the same partition-clamped node
// spans as the kernel itself.
type RowWrites struct {
	// Counts[r] is the number of Add calls targeting row r, summed over
	// threads. The census walks each thread's full clamped span, so counts
	// are exact for u >= src and a per-thread superset for u < src (where
	// the kernel may skip span prefixes with no live ancestor) — writer
	// classification errs only toward more sharing, never less.
	Counts []int64
	// Writer[r] is the single writing thread, RemapColdCAS when two or
	// more threads write r, or RemapUntouched.
	Writer []int32
	// PerThread[th] lists the rows thread th writes, ascending.
	PerThread [][]int32
	// Writes is the total Add-call count (sum of Counts).
	Writes int64
}

// CountRowWrites runs the counting pass for the mode-u MTTKRP reading its
// partial products from CSF level src, under the given partition. The spans
// mirror the kernel loops exactly: leaf rows come from the per-thread leaf
// ranges, rows at the source level from the owned ranges, and rows above
// the source level from the touched ranges (those kernels emit into every
// touched node of their clamped span, including zero contributions, so
// single-writer classification must count by touch, not ownership).
//
// Each thread's rows are marked in a bitset as its span is walked, and the
// journal is read back from the bitset in ascending row order, so no
// journal is sorted.
//
//lint:allow hotpath-alloc plan-time census, runs once per (plan, mode)
func CountRowWrites(tree *csf.Tree, part *sched.Partition, u, src int) *RowWrites {
	d := tree.Order()
	if u < 1 || u >= d || src < u || src >= d {
		panic(fmt.Sprintf("kernels: CountRowWrites(u=%d, src=%d) on an order-%d tree", u, src, d))
	}
	rows := tree.Dim(u)
	rw := &RowWrites{
		Counts:    make([]int64, rows),
		Writer:    make([]int32, rows),
		PerThread: make([][]int32, part.T),
	}
	counts := rw.Counts
	writer := rw.Writer
	for i := range writer {
		writer[i] = RemapUntouched
	}
	marked := make([]uint64, (rows+63)/64)
	fids := tree.FidLevel(u)
	for th := 0; th < part.T; th++ {
		var lo, hi int64
		switch {
		case u == d-1:
			lo, hi = part.LeafRange(th) //gate:allow bounds per-thread span lookup, T iterations
		case u == src:
			lo, hi = part.OwnedRange(th, u) //gate:allow bounds per-thread span lookup, T iterations
		default:
			lo = part.Start[th][u]                        //gate:allow bounds per-thread span lookup, T iterations
			hi = min(part.Own[th+1][u], int64(len(fids))) //gate:allow bounds per-thread span lookup, T iterations
		}
		t32 := int32(th)
		touched := 0
		for c := lo; c < hi; c++ {
			r := fids[c]                             //gate:allow bounds partition-clamped span over the fiber-id column
			counts[r]++                              //gate:allow bounds row addressed by stored fiber id, data-dependent
			if w := writer[r]; w == RemapUntouched { //gate:allow bounds row addressed by stored fiber id, data-dependent
				writer[r] = t32
			} else if w != t32 && w >= 0 {
				writer[r] = RemapColdCAS
			}
			if bit := uint64(1) << (r & 63); marked[r>>6]&bit == 0 { //gate:allow bounds row addressed by stored fiber id, data-dependent
				marked[r>>6] |= bit
				touched++
			}
		}
		rw.Writes += hi - lo
		var journal []int32
		if touched > 0 {
			journal = make([]int32, touched) //gate:allow escape one exactly sized journal per thread, T allocations
		}
		n := 0
		for i, word := range marked {
			for ; word != 0; word &= word - 1 {
				journal[n] = int32(i<<6 + bits.TrailingZeros64(word)) //gate:allow bounds journal sized to the thread's marked rows
				n++
			}
			marked[i] = 0
		}
		rw.PerThread[th] = journal //gate:allow bounds per-thread journal slot
	}
	return rw
}

// AccumPlan fixes, for one non-root MTTKRP output, how the scattered row
// contributions of T threads are combined: the strategy, the row remap, the
// hot-row set, and the touched-row journals that make Reset and Reduce
// proportional to the rows actually written. A plan is built once (per
// core.Plan, per mode) from the write census and is immutable afterwards;
// every workspace's OutBuf shares it.
type AccumPlan struct {
	Rows, Cols, T int
	Strategy      AccumStrategy
	// Remap classifies every output row. Under AccumHybrid a non-negative
	// entry is the row's hot slot; under AccumPriv it is the row's single
	// writing thread. Negative entries are the Remap* sentinels.
	Remap []int32
	// HotIDs maps hot slot -> row (AccumHybrid).
	HotIDs []int32
	// Cold lists the touched non-hot rows, ascending (hybrid Reset).
	Cold []int32
	// TouchedRows counts the written rows.
	TouchedRows int
	// PerThread[th] is thread th's touched-row journal (AccumPriv Reset).
	PerThread [][]int32
	// Diagnostics: total Add calls, Add calls landing in the hot set, and
	// the cold-row split between CAS and single-writer direct stores.
	Writes     int64
	HotWrites  int64
	CASRows    int
	DirectRows int
}

// HotK returns the number of hot rows (replica rows per thread).
func (p *AccumPlan) HotK() int { return len(p.HotIDs) }

// WorkspaceBytes returns what one workspace's buffer for the plan
// allocates (NewOutBufPlanned): the replicas of threads 1..T−1 under
// AccumPriv, whose thread 0 accumulates in the output, and the shared
// region plus T hot slabs under AccumHybrid.
func (p *AccumPlan) WorkspaceBytes() int64 {
	row := int64(p.Cols) * 8
	if p.Strategy == AccumPriv {
		return int64(p.T-1) * int64(p.Rows) * row
	}
	return int64(p.Rows)*row + int64(p.T)*int64(len(p.HotIDs))*row
}

// String renders the plan for Describe output, e.g.
// "hybrid(hot=24, direct=16384, cas=3)".
func (p *AccumPlan) String() string {
	if p.Strategy == AccumPriv {
		return fmt.Sprintf("priv(touched=%d)", p.TouchedRows)
	}
	return fmt.Sprintf("hybrid(hot=%d, direct=%d, cas=%d)", len(p.HotIDs), p.DirectRows, p.CASRows)
}

// PlanAccum resolves the accumulation mechanics for one output from its
// write census. Under AccumHybrid the hot set is the most-written
// multi-writer rows — k capped so the T dense replicas (T·k·cols elements)
// fit hotBudgetElems (<= 0 selects DefaultHotBudgetElems) — and the cold
// tail is split into single-writer rows (plain stores) and shared rows
// (CAS). Under AccumPriv the census writers become the reduction remap:
// single-writer rows copy one replica, shared rows sum all T.
//
//lint:allow hotpath-alloc plan-time construction, runs once per (plan, mode)
func PlanAccum(rw *RowWrites, cols, t int, strat AccumStrategy, hotBudgetElems int64) *AccumPlan {
	if cols <= 0 || t <= 0 {
		panic(fmt.Sprintf("kernels: PlanAccum(cols=%d, t=%d)", cols, t))
	}
	if hotBudgetElems <= 0 {
		hotBudgetElems = DefaultHotBudgetElems
	}
	rows := len(rw.Counts)
	ap := &AccumPlan{
		Rows:      rows,
		Cols:      cols,
		T:         t,
		Strategy:  strat,
		PerThread: rw.PerThread,
		Writes:    rw.Writes,
	}
	for _, w := range rw.Writer {
		if w != RemapUntouched {
			ap.TouchedRows++
		}
	}
	switch strat {
	case AccumPriv:
		ap.Remap = rw.Writer
		return ap
	case AccumHybrid:
		// Hot candidates: shared rows written often enough to amortise a
		// replica, most-written first, capped by the footprint budget.
		var cand []int32
		for r, w := range rw.Writer {
			if w == RemapColdCAS && rw.Counts[r] >= int64(hotWriteFactor*t) {
				cand = append(cand, int32(r))
			}
		}
		slices.SortFunc(cand, func(a, b int32) int {
			if c := cmp.Compare(rw.Counts[b], rw.Counts[a]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		k := len(cand)
		if maxK := hotBudgetElems / int64(t*cols); int64(k) > maxK {
			k = int(maxK)
		}
		ap.HotIDs = append([]int32(nil), cand[:k]...)
		ap.Remap = make([]int32, rows)
		for r := range ap.Remap {
			ap.Remap[r] = RemapUntouched
		}
		for slot, r := range ap.HotIDs {
			ap.Remap[r] = int32(slot)
			ap.HotWrites += rw.Counts[r]
		}
		for r, w := range rw.Writer {
			if w == RemapUntouched || ap.Remap[r] >= 0 {
				continue
			}
			if w >= 0 {
				ap.Remap[r] = RemapColdDirect
				ap.DirectRows++
			} else {
				ap.Remap[r] = RemapColdCAS
				ap.CASRows++
			}
			ap.Cold = append(ap.Cold, int32(r))
		}
		return ap
	default:
		panic(fmt.Sprintf("kernels: PlanAccum: unknown strategy %v", strat))
	}
}
