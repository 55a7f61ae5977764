package kernels

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"stef/internal/par"
	"stef/internal/tensor"
)

// DefaultPrivatizeMaxElems bounds the total element count (rows×cols×T) up
// to which non-root MTTKRP outputs are privatized per thread — the
// paper's "either atomic updates are needed, or each thread needs to hold
// its own copy" (Section III-B). Above the bound, a legacy buffer scatters
// every row with lock-free compare-and-swap adds, while a planned buffer
// (NewOutBufPlanned) takes the hybrid strategy: per-thread replicas for
// the hot rows only.
const DefaultPrivatizeMaxElems = 1 << 24

// AccumStrategy selects how an OutBuf combines the scattered row
// contributions of T threads.
type AccumStrategy uint8

const (
	// AccumPriv gives every thread a full private slab of the output,
	// reduced at the end (the paper's privatization extreme); thread 0's
	// slab is the output itself when the launch is bound to it.
	AccumPriv AccumStrategy = iota
	// AccumHybrid privatizes only the hot rows (dense per-thread replicas
	// indexed through a compact remap); the cold tail goes straight to the
	// shared buffer — plain stores where the partition proves a single
	// writer, CAS adds otherwise. Planned only past the privatization cap.
	AccumHybrid
)

func (s AccumStrategy) String() string {
	switch s {
	case AccumPriv:
		return "priv"
	case AccumHybrid:
		return "hybrid"
	}
	return fmt.Sprintf("accum(%d)", uint8(s))
}

// Remap sentinels. Non-negative entries are strategy-specific indices: the
// hot-row slot under AccumHybrid, the single writing thread under
// AccumPriv.
const (
	// RemapColdDirect marks a touched row with exactly one writing thread:
	// plain (non-atomic) stores into the shared buffer are safe.
	RemapColdDirect int32 = -1
	// RemapColdCAS marks a touched row with two or more writing threads
	// outside the hot set: adds must go through the CAS loop. Under
	// AccumPriv the same value marks a multi-writer row whose reduction
	// must sum every replica.
	RemapColdCAS int32 = -2
	// RemapUntouched marks a row no thread ever writes.
	RemapUntouched int32 = -3
)

// OutBuf accumulates a scattered MTTKRP output matrix from T threads. A
// buffer is either *planned* — built from an AccumPlan whose counting pass
// fixed the per-row mechanics (hot replicas, direct stores, CAS) and whose
// touched-row journals make Reset and Reduce proportional to the rows
// actually written — or *legacy*, using the binary footprint rule
// (full privatization below DefaultPrivatizeMaxElems, CAS above), which the
// baseline engines keep.
//
// A planned priv buffer holds replicas for threads 1..T-1 only: thread 0
// accumulates in the launch's output itself when ResetInto binds it, or
// else in one matrix of the buffer's own, and clears the rows of its
// journal as its walk starts. Reduce then completes that output from the
// replicas.
//
// A planned buffer is clean on reduce: Reduce leaves every replica cell
// (threads 1..T-1, the hot slabs, the shared region) +0 as it reads it, so
// the Reset that starts the next launch has nothing to clear. Reset clears
// the journals only when the last launch did not complete its Reduce (a
// walk that panicked, say).
type OutBuf struct {
	rows, cols int
	t          int
	plan       *AccumPlan // nil for legacy footprint-rule buffers
	// priv holds the private replicas (AccumPriv, legacy privatized).
	// Under a planned AccumPriv, priv[0] is thread 0's slab: the matrix
	// bound by ResetInto until Reduce or the next Reset, own otherwise.
	priv []*tensor.Matrix
	// own is a planned AccumPriv buffer's slab for thread 0 in launches
	// bound to no output, allocated by the first Reset; Reduce copies it
	// out.
	own    *tensor.Matrix
	shared []uint64     // float64 bit patterns: legacy CAS + hybrid cold rows
	hot    []float64    // AccumHybrid: T contiguous k×cols replicas
	hotK   int          // hot rows per replica
	ops    vecOps       // rank-vector primitives chosen by opsFor
	shadow outbufShadow // write-ownership oracle (-tags shadowtrace)
	// launched is set by a planned buffer's Reset and cleared when its
	// Reduce returns: while set, cells may hold a launch's values.
	launched bool
}

// NewOutBuf returns a legacy accumulation buffer for a rows×cols output
// shared by t threads, privatized iff rows·cols·t fits maxPrivElems
// (<= 0 selects DefaultPrivatizeMaxElems). The footprint is computed in
// int64 so huge outputs cannot overflow the check on 32-bit platforms.
func NewOutBuf(rows, cols, t int, maxPrivElems int64) *OutBuf {
	if maxPrivElems <= 0 {
		maxPrivElems = DefaultPrivatizeMaxElems
	}
	if rows < 0 || cols < 0 || t < 1 {
		panic(fmt.Sprintf("kernels: NewOutBuf(rows=%d, cols=%d, t=%d)", rows, cols, t))
	}
	b := &OutBuf{rows: rows, cols: cols, t: t, ops: opsFor()}
	elems := int64(rows) * int64(cols)
	if t == 1 || elems*int64(t) <= maxPrivElems {
		b.priv = make([]*tensor.Matrix, t)
		for th := range b.priv {
			b.priv[th] = tensor.NewMatrix(rows, cols)
		}
		return b
	}
	b.shared = makeShared(rows, cols)
	return b
}

// NewOutBufPlanned returns an accumulation buffer executing the given plan.
// The plan is shared, read-only; the buffer holds the mutable slabs, so one
// plan serves any number of concurrent workspaces. A priv plan allocates
// T−1 replicas, none at T = 1: thread 0 writes the output (see ResetInto).
func NewOutBufPlanned(ap *AccumPlan) *OutBuf {
	b := &OutBuf{rows: ap.Rows, cols: ap.Cols, t: ap.T, plan: ap, ops: opsFor()}
	switch ap.Strategy {
	case AccumPriv:
		b.priv = make([]*tensor.Matrix, ap.T)
		for th := 1; th < ap.T; th++ {
			b.priv[th] = tensor.NewMatrix(ap.Rows, ap.Cols)
		}
	case AccumHybrid:
		b.shared = makeShared(ap.Rows, ap.Cols)
		b.hotK = ap.HotK()
		b.hot = make([]float64, ap.T*b.hotK*ap.Cols)
	default:
		panic(fmt.Sprintf("kernels: NewOutBufPlanned: unknown strategy %v", ap.Strategy))
	}
	return b
}

// makeShared allocates the shared bit-pattern buffer, checking the int64
// footprint before converting to a length.
func makeShared(rows, cols int) []uint64 {
	elems := int64(rows) * int64(cols)
	if int64(int(elems)) != elems || elems < 0 {
		panic(fmt.Sprintf("kernels: output buffer %dx%d overflows the address space", rows, cols))
	}
	return make([]uint64, int(elems))
}

// Plan returns the accumulation plan the buffer executes (nil for legacy
// footprint-rule buffers).
func (b *OutBuf) Plan() *AccumPlan { return b.plan }

// Privatized reports whether the buffer holds full per-thread copies.
func (b *OutBuf) Privatized() bool { return b.priv != nil }

// OutBufThread is thread th's write handle on an OutBuf: the per-thread
// indirection (private replica base, hot slab, remap) is resolved once at
// kernel-launch time so the per-nonzero AddScaled/AddHadamard calls stay
// branch-light. The handle is a small value; kernels hoist it out of their
// fiber loops.
type OutBufThread struct {
	b      *OutBuf
	th     int
	cols   int
	ops    vecOps         // rank-vector primitives, resolved at construction
	slab   *tensor.Matrix // private replica (AccumPriv / legacy)
	priv   []float64      // slab's backing
	hot    []float64      // thread's hot-row slab (AccumHybrid; may be empty)
	remap  []int32        // row classification (AccumHybrid only)
	shared []uint64
}

// Thread returns the write handle for thread th.
func (b *OutBuf) Thread(th int) OutBufThread {
	o := OutBufThread{b: b, th: th, cols: b.cols, ops: b.ops, shared: b.shared}
	if b.priv != nil {
		o.slab = b.priv[th]
		o.priv = o.slab.Data
		return o
	}
	if b.plan != nil && b.plan.Strategy == AccumHybrid {
		o.remap = b.plan.Remap
		if b.hotK > 0 {
			n := b.hotK * b.cols
			o.hot = b.hot[th*n : (th+1)*n]
		}
	}
	return o
}

// AddScaled accumulates s*src into row `row`.
func (o *OutBufThread) AddScaled(row int, s float64, src []float64) {
	if o.priv != nil {
		base := row * o.cols
		o.ops.addScaled(o.priv[base:base+o.cols], s, src) //gate:allow bounds row index is a stored fiber id, data-dependent
		return
	}
	if o.remap != nil {
		slot := o.remap[row] //gate:allow bounds row index is a stored fiber id, data-dependent
		if slot >= 0 {
			o.b.shadowHot(o.th, row, slot)
			base := int(slot) * o.cols
			o.ops.addScaled(o.hot[base:base+o.cols], s, src) //gate:allow bounds hot slot from the remap, bounded by the plan's hot count
			return
		}
		if slot == RemapColdDirect {
			o.b.shadowDirect(o.th, row)
			base := row * o.cols
			directAddScaled(o.shared[base:base+o.cols], s, src) //gate:allow bounds row index is a stored fiber id, data-dependent
			return
		}
	}
	base := row * o.cols
	atomicAddScaled(o.shared[base:base+o.cols], s, src) //gate:allow bounds row index is a stored fiber id, data-dependent
}

// AddHadamard accumulates a ⊙ bv into row `row`.
func (o *OutBufThread) AddHadamard(row int, a, bv []float64) {
	if o.priv != nil {
		base := row * o.cols
		o.ops.hadamardAccum(o.priv[base:base+o.cols], a, bv) //gate:allow bounds row index is a stored fiber id, data-dependent
		return
	}
	if o.remap != nil {
		slot := o.remap[row] //gate:allow bounds row index is a stored fiber id, data-dependent
		if slot >= 0 {
			o.b.shadowHot(o.th, row, slot)
			base := int(slot) * o.cols
			o.ops.hadamardAccum(o.hot[base:base+o.cols], a, bv) //gate:allow bounds hot slot from the remap, bounded by the plan's hot count
			return
		}
		if slot == RemapColdDirect {
			o.b.shadowDirect(o.th, row)
			base := row * o.cols
			directAddHadamard(o.shared[base:base+o.cols], a, bv) //gate:allow bounds row index is a stored fiber id, data-dependent
			return
		}
	}
	base := row * o.cols
	atomicAddHadamard(o.shared[base:base+o.cols], a, bv) //gate:allow bounds row index is a stored fiber id, data-dependent
}

// RunOut folds each fiber of a run into its output row: the fiber's leaf
// sum, from +0 into child, times g, added into row mids[c]. A private slab
// takes the fused run; hybrid and legacy shared buffers take fiberSum,
// then AddHadamard, fiber by fiber.
func (o *OutBufThread) RunOut(child, g []float64, r fiberRun, f *tensor.Matrix) {
	if o.slab != nil {
		o.ops.runOut(o.slab, child, g, r, f)
		return
	}
	for c, mid := range r.mids {
		lo, hi := r.window(c)                                  //gate:allow bounds fiber c+1's leaf pointer; the run holds one more pointer than fibers
		o.ops.fiberSum(child, r.vals[lo:hi], r.fids[lo:hi], f) //gate:allow bounds leaf window from the fiber pointers, data-dependent
		o.AddHadamard(int(mid), g, child)
	}
}

// RunScatter pushes each fiber of a run down to its leaves: k = a ⊙
// gm.Row(mids[c]), then vals[j]·k added into row fids[j], leaf by leaf. A
// private slab takes the fused run; other buffers take hadamardInto, then
// one AddScaled per leaf.
func (o *OutBufThread) RunScatter(k, a []float64, gm *tensor.Matrix, r fiberRun) {
	if o.slab != nil {
		o.ops.runScatter(o.slab, k, a, gm, r)
		return
	}
	for c, mid := range r.mids {
		lo, hi := r.window(c)                      //gate:allow bounds fiber c+1's leaf pointer; the run holds one more pointer than fibers
		o.ops.hadamardInto(k, a, gm.Row(int(mid))) //gate:allow bounds fiber row addressed by a stored fiber id, data-dependent
		for j := lo; j < hi; j++ {
			o.AddScaled(int(r.fids[j]), r.vals[j], k) //gate:allow bounds leaf values and ids addressed by the fiber pointers, data-dependent
		}
	}
}

// NodeOut adds each node of a node run into its output row: the node's
// fibers summed and folded from +0 into t, then k ⊙ t added into row
// nids[n]. A private slab takes the fused two-level call; other buffers
// take runHad, then AddHadamard, node by node.
func (o *OutBufThread) NodeOut(t, child, k []float64, fm *tensor.Matrix, nr nodeRun, f *tensor.Matrix) {
	if o.slab != nil {
		o.ops.nodeOut(o.slab, t, child, k, fm, nr, f)
		return
	}
	for n, nid := range nr.nids {
		o.ops.zero(t)
		o.ops.runHad(t, child, fm, nr.run(n), f) //gate:allow bounds node n's fiber window from the node pointers, data-dependent
		o.AddHadamard(int(nid), k, t)
	}
}

// NodePushOut pushes each node of a node run down to its fibers' output
// rows: kn = a ⊙ gm.Row(nids[n]), then RunOut over the node's fibers with
// kn. A private slab takes the fused two-level call; other buffers take
// hadamardInto, then RunOut, node by node.
func (o *OutBufThread) NodePushOut(kn, child, a []float64, gm *tensor.Matrix, nr nodeRun, f *tensor.Matrix) {
	if o.slab != nil {
		o.ops.nodePushOut(o.slab, kn, child, a, gm, nr, f)
		return
	}
	for n, nid := range nr.nids {
		o.ops.hadamardInto(kn, a, gm.Row(int(nid))) //gate:allow bounds node row addressed by a stored fiber id, data-dependent
		o.RunOut(child, kn, nr.run(n), f)
	}
}

// NodePushScatter pushes each node of a node run down to its leaves: kn =
// a ⊙ gm.Row(nids[n]), then RunScatter over the node's fibers with kn. A
// private slab takes the fused two-level call; other buffers take
// hadamardInto, then RunScatter, node by node.
func (o *OutBufThread) NodePushScatter(kf, kn, a []float64, gm, fm *tensor.Matrix, nr nodeRun) {
	if o.slab != nil {
		o.ops.nodePushScatter(o.slab, kf, kn, a, gm, fm, nr)
		return
	}
	for n, nid := range nr.nids {
		o.ops.hadamardInto(kn, a, gm.Row(int(nid))) //gate:allow bounds node row addressed by a stored fiber id, data-dependent
		o.RunScatter(kf, kn, fm, nr.run(n))
	}
}

// AddHadamard accumulates a ⊙ bv into row `row` on behalf of thread th.
// Engines with per-call scatter (the COO baselines) use this form; the CSF
// kernels hoist a Thread handle instead.
func (b *OutBuf) AddHadamard(th, row int, a, bv []float64) {
	o := b.Thread(th)
	o.AddHadamard(row, a, bv)
}

// AddScaled accumulates s*src into row `row` on behalf of thread th.
func (b *OutBuf) AddScaled(th, row int, s float64, src []float64) {
	o := b.Thread(th)
	o.AddScaled(row, s, src)
}

// Reset prepares the buffer for a launch whose Reduce may go into any
// matrix: a planned priv buffer's thread 0 accumulates in the buffer's own
// slab, which Reduce copies out. See ResetInto.
func (b *OutBuf) Reset() { b.reset(nil) }

// ResetInto prepares the buffer for a launch whose Reduce goes into out: a
// planned priv buffer binds out as thread 0's slab, so thread 0
// accumulates in out directly and only threads 1..T−1 write replicas. The
// binding lasts until Reduce(out) or the next Reset; nothing else writes
// out. Other buffers take ResetInto as Reset.
//
// Either form starts a launch. A planned buffer is already clean after a
// completed launch, whose Reduce cleared every replica cell it read; after
// a launch that did not complete its Reduce it clears only the rows its
// journals say were written — per-thread journals for the replicas of
// threads 1..T−1, the hot slabs and the cold touched list for the hybrid's
// shared region — instead of the full rows×cols×T footprint, on T
// threads. Legacy buffers are cleared in full.
func (b *OutBuf) ResetInto(out *tensor.Matrix) {
	if out.Rows != b.rows || out.Cols != b.cols {
		panic(fmt.Sprintf("kernels: ResetInto %dx%d, want %dx%d", out.Rows, out.Cols, b.rows, b.cols))
	}
	b.reset(out)
}

// reset starts a launch bound to out, or to no output when out is nil.
func (b *OutBuf) reset(out *tensor.Matrix) {
	b.shadowReset()
	if b.plan == nil {
		b.resetLegacy()
		return
	}
	if b.launched {
		b.resetJournals()
	}
	b.launched = true
	if b.plan.Strategy != AccumPriv {
		return
	}
	if out == nil {
		if b.own == nil {
			b.own = tensor.NewMatrix(b.rows, b.cols)
		}
		out = b.own
	}
	b.priv[0] = out
}

// unbind drops a planned priv buffer's binding to a caller's matrix, so
// that nothing the buffer does later writes it.
func (b *OutBuf) unbind() {
	if b.plan != nil && b.plan.Strategy == AccumPriv {
		b.priv[0] = b.own
	}
}

// beginThread is thread th's first step in a launch. On a planned priv
// buffer thread 0's slab holds a stale output or an earlier launch's
// values, so thread 0 clears the rows of its journal, the only rows it
// writes; Reduce gives every other row its value.
func (b *OutBuf) beginThread(th int) {
	if th == 0 && b.plan != nil && b.plan.Strategy == AccumPriv {
		b.resetPriv(th)
	}
}

// resetJournals clears the replica rows of a planned buffer that a launch
// may have written, on T threads. It leaves thread 0's priv slab alone:
// thread 0 clears it as its walk starts, and it may be a caller's matrix.
func (b *OutBuf) resetJournals() {
	b.unbind()
	switch b.plan.Strategy {
	case AccumPriv:
		par.Do(b.t, func(th int) {
			if th > 0 {
				b.resetPriv(th)
			}
		})
	case AccumHybrid:
		if b.t == 1 {
			clear(b.hot)
			b.resetCold(0, len(b.plan.Cold))
			return
		}
		par.Do(b.t, func(th int) {
			n := b.hotK * b.cols
			clear(b.hot[th*n : (th+1)*n])
			lo := th * len(b.plan.Cold) / b.t
			hi := (th + 1) * len(b.plan.Cold) / b.t
			b.resetCold(lo, hi)
		})
	}
}

// resetLegacy zeroes a footprint-rule buffer in full, on T threads.
func (b *OutBuf) resetLegacy() {
	if b.priv != nil {
		if b.t == 1 {
			clear(b.priv[0].Data)
			return
		}
		par.Do(b.t, func(th int) { clear(b.priv[th].Data) })
		return
	}
	clear(b.shared)
}

// resetPriv clears thread th's slab along its touched-row journal.
func (b *OutBuf) resetPriv(th int) {
	data, journal := b.priv[th].Data, b.plan.PerThread[th]
	for _, r := range journal {
		base := int(r) * b.cols
		clear(data[base : base+b.cols]) //gate:allow bounds journal rows are data-dependent
	}
}

// resetCold clears the journalled cold rows Cold[lo:hi] of the shared
// region.
func (b *OutBuf) resetCold(lo, hi int) {
	for _, r := range b.plan.Cold[lo:hi] {
		base := int(r) * b.cols
		clear(b.shared[base : base+b.cols]) //gate:allow bounds journal rows are data-dependent
	}
}

// Reduce sums the per-thread state into out, overwriting it, on T threads.
// Planned buffers read only the rows the plan proves touched: single-writer
// rows copy exactly one replica, hot rows are folded with a parallel tree
// combine, cold rows stream out of the shared region, untouched rows are
// zeroed. A planned priv buffer completes thread 0's slab in place — out
// itself when ResetInto bound it, else its own slab, then copied into out —
// and unbinds. A planned buffer clears each replica cell it reads, so it is
// clean when Reduce returns. Call Reduce once per kernel launch.
func (b *OutBuf) Reduce(out *tensor.Matrix) {
	if out.Rows != b.rows || out.Cols != b.cols {
		panic(fmt.Sprintf("kernels: Reduce into %dx%d, want %dx%d", out.Rows, out.Cols, b.rows, b.cols))
	}
	if b.plan == nil {
		b.reduceLegacy(out)
		return
	}
	switch b.plan.Strategy {
	case AccumPriv:
		slab := b.priv[0]
		if slab != out && slab != b.own {
			panic("kernels: Reduce into another matrix than the one ResetInto bound")
		}
		if b.t == 1 {
			b.reducePrivRows(0, b.rows)
		} else {
			par.Blocks(b.rows, b.t, func(_, lo, hi int) { b.reducePrivRows(lo, hi) })
		}
		if slab != out {
			out.CopyFrom(slab)
		}
		b.unbind()
	case AccumHybrid:
		b.combineHot()
		if b.t == 1 {
			b.reduceHybridRows(out, 0, b.rows)
		} else {
			par.Blocks(b.rows, b.t, func(_, lo, hi int) { b.reduceHybridRows(out, lo, hi) })
		}
	}
	b.launched = false
}

// combineHot folds the T hot-row replicas into replica 0 with a parallel
// tree combine: log2(T) rounds of pairwise slab adds, each round's pairs
// running under par.Do. Each slab folded into another is cleared.
func (b *OutBuf) combineHot() {
	n := b.hotK * b.cols
	if n == 0 || b.t == 1 {
		return
	}
	for stride := 1; stride < b.t; stride <<= 1 {
		pairs := 0
		for i := 0; i+stride < b.t; i += 2 * stride {
			pairs++
		}
		step := 2 * stride
		src := stride
		par.Do(pairs, func(p int) { //gate:allow escape log2(T) pairwise-combine launches per solve
			i := p * step
			from := b.hot[(i+src)*n : (i+src)*n+n] //gate:allow bounds slab offsets bounded by the replica count
			addScaled(b.hot[i*n:i*n+n], 1, from)   //gate:allow bounds slab offsets bounded by the replica count
			clear(from)
		})
	}
}

// reducePrivRows completes rows [lo, hi) of thread 0's slab from the
// replicas of threads 1..T−1, clearing each replica row it reads.
// Untouched rows are zeroed; a row whose single writer is thread 0 already
// holds its value; a row of a single writer th ≥ 1 copies that replica's
// row; a row of several writers gets replicas 1..T−1 added in thread order
// onto thread 0's partial, or onto +0 where thread 0's journal lacks the
// row. These are the operations of a reduce that copies replica 0 and adds
// the rest, so the sums keep their bits, −0 included.
func (b *OutBuf) reducePrivRows(lo, hi int) {
	remap := b.plan.Remap
	slab := b.priv[0]
	j0 := b.plan.PerThread[0]
	k := sort.Search(len(j0), func(i int) bool { return int(j0[i]) >= lo })
	for i, w := range remap[lo:hi] { //gate:allow bounds row block bounds from par.Blocks
		r := lo + i
		switch {
		case w == 0:
		case w == RemapUntouched:
			clear(slab.Row(r)) //gate:allow bounds row index within the par.Blocks block
		case w > 0:
			src := b.priv[w].Row(r) //gate:allow bounds writer thread id from the census, bounded by T
			copy(slab.Row(r), src)  //gate:allow bounds row index within the par.Blocks block
			clear(src)
		default:
			dst := slab.Row(r) //gate:allow bounds row index within the par.Blocks block
			for k < len(j0) && int(j0[k]) < r {
				k++
			}
			if k == len(j0) || int(j0[k]) != r { //gate:allow bounds journal cursor checked against its length
				clear(dst)
			}
			for th := 1; th < b.t; th++ {
				src := b.priv[th].Row(r) //gate:allow bounds replica index bounded by the thread loop
				b.ops.addScaled(dst, 1, src)
				clear(src)
			}
		}
	}
}

// reduceHybridRows reduces the hybrid state into out rows [lo, hi),
// clearing each cell it reads: hot rows read the (already tree-combined)
// replica 0 slab, cold rows stream out of the shared bit buffer, untouched
// rows are zeroed.
func (b *OutBuf) reduceHybridRows(out *tensor.Matrix, lo, hi int) {
	remap := b.plan.Remap
	for i, slot := range remap[lo:hi] { //gate:allow bounds row block bounds from par.Blocks
		r := lo + i
		dst := out.Row(r) //gate:allow bounds row index within the par.Blocks block
		switch {
		case slot >= 0:
			base := int(slot) * b.cols
			src := b.hot[base : base+b.cols] //gate:allow bounds hot slot from the remap, bounded by the plan's hot count
			copy(dst, src)
			clear(src)
		case slot == RemapUntouched:
			clear(dst)
		default:
			base := r * b.cols
			src := b.shared[base : base+b.cols] //gate:allow bounds row base bounded by the remap length
			bitsToFloats(dst, src)
			clear(src)
		}
	}
}

// reduceLegacy reduces a footprint-rule buffer in full. The single-threaded
// case avoids constructing the par.Blocks closure entirely (a closure
// passed to par escapes even when run inline), keeping pooled solves
// allocation-free.
func (b *OutBuf) reduceLegacy(out *tensor.Matrix) {
	if b.t == 1 {
		if b.priv != nil {
			out.CopyFrom(b.priv[0])
			return
		}
		bitsToFloats(out.Data, b.shared)
		return
	}
	if b.priv != nil {
		par.Blocks(b.rows, b.t, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				dst := out.Row(i)
				copy(dst, b.priv[0].Row(i))
				for th := 1; th < b.t; th++ {
					b.ops.addScaled(dst, 1, b.priv[th].Row(i))
				}
			}
		})
		return
	}
	par.Blocks(len(b.shared), b.t, func(_, lo, hi int) {
		bitsToFloats(out.Data[lo:hi], b.shared[lo:hi])
	})
}

// bitsToFloats converts float64 bit patterns into dst.
func bitsToFloats(dst []float64, src []uint64) {
	n := min(len(dst), len(src))
	d, v := dst[:n:n], src[:n:n]
	for i := range d {
		d[i] = math.Float64frombits(v[i])
	}
}

// directAddScaled computes dst += s*src on float64 bit patterns with plain
// stores; safe only on rows the plan proves single-writer.
func directAddScaled(dst []uint64, s float64, src []float64) {
	n := min(len(dst), len(src))
	d, v := dst[:n:n], src[:n:n]
	for i := range d {
		d[i] = math.Float64bits(math.Float64frombits(d[i]) + s*v[i])
	}
}

// directAddHadamard computes dst += a ⊙ bv on float64 bit patterns with
// plain stores; safe only on rows the plan proves single-writer.
func directAddHadamard(dst []uint64, a, bv []float64) {
	n := min(len(dst), len(a), len(bv))
	d, x, y := dst[:n:n], a[:n:n], bv[:n:n]
	for i := range d {
		d[i] = math.Float64bits(math.Float64frombits(d[i]) + x[i]*y[i])
	}
}

// atomicAddScaled computes dst += s*src with CAS adds.
func atomicAddScaled(dst []uint64, s float64, src []float64) {
	n := min(len(dst), len(src))
	d, v := dst[:n:n], src[:n:n]
	for i := range d {
		atomicAddFloat(&d[i], s*v[i])
	}
}

// atomicAddHadamard computes dst += a ⊙ bv with CAS adds.
func atomicAddHadamard(dst []uint64, a, bv []float64) {
	n := min(len(dst), len(a), len(bv))
	d, x, y := dst[:n:n], a[:n:n], bv[:n:n]
	for i := range d {
		atomicAddFloat(&d[i], x[i]*y[i])
	}
}

// atomicAddFloat adds v to the float64 stored as bits in *p with a CAS
// loop. Adding zero is skipped, which matters for very sparse scatters.
func atomicAddFloat(p *uint64, v float64) {
	if v == 0 {
		return
	}
	for {
		old := atomic.LoadUint64(p)
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(p, old, nw) {
			return
		}
	}
}
