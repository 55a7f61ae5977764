package kernels

import (
	"fmt"

	"stef/internal/csf"
	"stef/internal/par"
	"stef/internal/sched"
	"stef/internal/tensor"
)

// ModeMTTKRP computes the non-root MTTKRP with a freshly allocated scratch;
// see ModeMTTKRPWith. It is the convenient form for one-shot callers and
// tests; engines on the repeated-solve path pass a pooled scratch instead.
func ModeMTTKRP(tree *csf.Tree, factors []*tensor.Matrix, u int, partials *Partials, buf *OutBuf, part *sched.Partition) {
	ModeMTTKRPWith(tree, factors, u, partials, buf, part, NewScratch(tree.Order(), factors[0].Cols, part.T))
}

// ModeMTTKRPWith computes the MTTKRP for CSF level u (0 < u <= d-1) into
// buf, reading the deepest useful source: the memoized P^(src) when
// src = partials.SourceLevel(u) < d-1, or the tensor leaves otherwise.
// This is Algorithm 4/5 of the paper for u > 0, covering Algorithms 6
// (src == u), 7 (u < src < d-1) and 8 (src == d-1) as special cases.
// sc supplies the per-thread accumulators; it must satisfy
// NewScratch(tree.Order(), R, part.T) or larger.
//
// The Khatri-Rao row k_{u-1} is built going down levels 0..u-1; below
// level u, partial results t_l are accumulated upward from the source
// level. Work is partitioned by the tree's source-level fibers: each
// thread processes exactly the source fibers it owns, so no contribution
// is duplicated; scattered output rows are combined through buf, by the
// strategy it was planned with. Every order takes the same recursive walk
// (modeWalk). The caller must Reset (or ResetInto) buf beforehand and
// Reduce it afterwards.
func ModeMTTKRPWith(tree *csf.Tree, factors []*tensor.Matrix, u int, partials *Partials, buf *OutBuf, part *sched.Partition, sc *Scratch) {
	lifeEnter(tree, sc)
	d := tree.Order()
	if u <= 0 || u >= d {
		panic(fmt.Sprintf("kernels: ModeMTTKRP mode %d out of range (order %d); use RootMTTKRP for mode 0", u, d))
	}
	sc.check(d, factors[0].Cols, part.T)
	src := partials.SourceLevel(u)

	sc.shadow.begin(part)
	modeGeneric(tree, factors, u, src, partials, buf, part, sc)
	sc.shadow.end()
}

// modeGeneric launches the non-root walk on every thread of the
// partition. At T == 1 it calls the thread body directly, so a launch
// allocates nothing.
func modeGeneric(tree *csf.Tree, factors []*tensor.Matrix, u, src int, partials *Partials, buf *OutBuf, part *sched.Partition, sc *Scratch) {
	if part.T == 1 {
		modeGenericThread(0, tree, factors, u, src, partials, buf, part, sc)
		return
	}
	par.Do(part.T, func(th int) { //gate:allow escape multi-threaded launch; the T==1 path above stays allocation-free
		modeGenericThread(th, tree, factors, u, src, partials, buf, part, sc)
	})
}

// modeWalk is one thread's non-root walk. Its methods are the recursion,
// on a value that stays on the thread's stack, so the walk builds no
// closures. Level l's accumulator holds k_l for the current path at
// levels 1..u-1 (k_0 aliases a factor row) and t_l at levels u..src-1, so
// the two ranges never overlap.
type modeWalk struct {
	treeView
	partials *Partials
	sc       *Scratch
	ops      *vecOps
	ob       OutBufThread
	th, d    int
}

// modeStep is the non-root walk's step at level l of an order-d tree for
// mode u read from source level src: walk's step above u, down's from u.
func modeStep(l, d, u, src int) step {
	leaves := src == d-1
	if l >= u {
		switch {
		case l+1 == src:
			return stepMemoFold
		case l+3 == src && leaves:
			return stepNodeRun
		}
		return stepFold
	}
	switch {
	case u == d-1 && l == d-4:
		return stepNodePushScatter
	case u == d-1 && l == d-3:
		return stepRunScatter
	case u == d-2 && leaves && l == d-4:
		return stepNodePushOut
	case l+1 < u:
		return stepDescend
	case u == d-1:
		return stepLeafScatter
	case u == src:
		return stepMemoOut
	case u == d-2 && leaves:
		return stepRunOut
	case u == d-3 && leaves:
		return stepNodeOut
	}
	return stepOut
}

// modeGenericThread is thread th's share of the non-root MTTKRP.
func modeGenericThread(th int, tree *csf.Tree, factors []*tensor.Matrix, u, src int, partials *Partials, buf *OutBuf, part *sched.Partition, sc *Scratch) {
	buf.beginThread(th)
	oLo, oHi := part.OwnedRange(th, src)
	if oLo >= oHi {
		return
	}
	d := tree.Order()
	s, e := part.Start[th], part.Own[th+1]
	w := modeWalk{
		treeView: sc.view(th, tree, factors, s, e, src, oLo, oHi),
		partials: partials, sc: sc, ops: &sc.ops,
		// Resolve the output handle once: the per-thread hot slab / remap
		// / replica indirection stays out of the emission loops.
		ob: buf.Thread(th),
		th: th, d: d,
	}
	for l, lv := 0, w.lv; l < len(lv); l++ {
		lv[l].step = modeStep(l, d, u, src)
	}
	rLo, rHi := s[0], min(int64(tree.NumFibers(0)), e[0])
	for n := rLo; n < rHi; n++ {
		w.walk(0, n, nil)
	}
}

// down computes t_l for node n at level l by contracting everything below
// it down to the source level (u <= l < src).
func (w *modeWalk) down(l int, n int64) []float64 {
	lv := &w.lv[l] //gate:allow bounds level table indexed by the recursion depth, sized to the order
	w.ops.zero(lv.t)
	cLo, cHi := lv.window(n)
	ch := &w.lv[l+1] //gate:allow bounds level table indexed by the recursion depth, sized to the order
	switch lv.step {
	case stepMemoFold:
		// The children are the source level: fold up each one's
		// memoized row.
		p := w.partials.P[l+1] //gate:allow bounds level arrays are indexed by the recursion depth, sized to the order
		for c := cLo; c < cHi; c++ {
			w.sc.shadow.own(w.th, l+1, c)
			w.ops.hadamardAccum(lv.t, p.Row(int(c)), ch.f.Row(int(ch.fids[c]))) //gate:allow bounds factor row addressed by stored fiber id, data-dependent
		}
	case stepNodeRun:
		// The children are level d-3 nodes: every child's run of fibers,
		// and its fold into t_l, in one call.
		nr := w.nodeRun(ch, cLo, cHi)
		w.sc.shadow.ownNodeRun(w.th, w.d-1, &nr)
		gc := &w.lv[l+2] //gate:allow bounds level table indexed by the recursion depth, sized to the order
		w.ops.nodeHad(lv.t, ch.t, gc.t, ch.f, gc.f, nr, w.leafF)
	default:
		for c := cLo; c < cHi; c++ {
			w.ops.hadamardAccum(lv.t, w.down(l+1, c), ch.f.Row(int(ch.fids[c]))) //gate:allow bounds factor row addressed by stored fiber id, data-dependent
		}
	}
	return lv.t
}

// walk descends levels 0..u-1 building the KRP row, then emits output
// contributions at level u.
func (w *modeWalk) walk(l int, n int64, kprev []float64) {
	lv := &w.lv[l] //gate:allow bounds level table indexed by the recursion depth, sized to the order
	g := lv.f.Row(int(lv.fids[n]))
	kcur := g
	if l > 0 {
		kcur = lv.t
		w.ops.hadamardInto(kcur, kprev, g)
	}
	cLo, cHi := lv.window(n)
	if lv.step == stepLeafScatter {
		// Order 2's leaf mode: k_0 is a factor row, with no push-down to
		// fuse.
		for k := cLo; k < cHi; k++ {
			w.sc.shadow.own(w.th, w.d-1, k)
			w.ob.AddScaled(int(w.fibers.fids[k]), w.fibers.vals[k], kcur) //gate:allow bounds leaf values and factor rows are addressed by stored fiber ids, data-dependent
		}
		return
	}
	ch := &w.lv[l+1] //gate:allow bounds level table indexed by the recursion depth, sized to the order
	switch lv.step {
	case stepDescend:
		for c := cLo; c < cHi; c++ {
			w.walk(l+1, c, kcur)
		}
	case stepNodePushScatter:
		// Leaf mode: each level d-3 child's push-down, its fibers'
		// push-downs and their leaf scatters in one fused call.
		nr := w.nodeRun(ch, cLo, cHi)
		w.sc.shadow.ownNodeRun(w.th, w.d-1, &nr)
		gc := &w.lv[l+2] //gate:allow bounds level table indexed by the recursion depth, sized to the order
		w.ob.NodePushScatter(gc.t, ch.t, kcur, ch.f, gc.f, nr)
	case stepRunScatter:
		// Leaf mode: the children are level d-2 fibers, whose push-downs
		// and leaf scatters take one fused call.
		run := w.run(cLo, cHi)
		w.sc.shadow.ownRun(w.th, w.d-1, &run)
		w.ob.RunScatter(ch.t, kcur, ch.f, run)
	case stepNodePushOut:
		// Level u = d-2 recomputed from the leaves (Algorithm 8): each
		// level d-3 child's push-down and its fibers' sums, each folded
		// into its output row, in one fused call.
		nr := w.nodeRun(ch, cLo, cHi)
		w.sc.shadow.ownNodeRun(w.th, w.d-1, &nr)
		gc := &w.lv[l+2] //gate:allow bounds level table indexed by the recursion depth, sized to the order
		w.ob.NodePushOut(ch.t, gc.t, kcur, ch.f, nr, w.leafF)
	case stepMemoOut:
		// Memoized at exactly level u: one MTTV per owned fiber
		// (Algorithm 6).
		p := w.partials.P[l+1] //gate:allow bounds level arrays are indexed by the recursion depth, sized to the order
		for c := cLo; c < cHi; c++ {
			w.sc.shadow.own(w.th, l+1, c)
			w.ob.AddHadamard(int(ch.fids[c]), kcur, p.Row(int(c))) //gate:allow bounds factor row addressed by stored fiber id, data-dependent
		}
	case stepRunOut:
		// Level u = d-2 recomputed from the leaves (Algorithm 8): one
		// fused call for the children's sums, each folded into its output
		// row.
		run := w.run(cLo, cHi)
		w.sc.shadow.ownRun(w.th, w.d-1, &run)
		w.ob.RunOut(ch.t, kcur, run, w.leafF)
	case stepNodeOut:
		// Level u = d-3 recomputed from the leaves (Algorithm 8): each
		// child's sum over its run of fibers, added into its output row,
		// in one fused call.
		nr := w.nodeRun(ch, cLo, cHi)
		w.sc.shadow.ownNodeRun(w.th, w.d-1, &nr)
		gc := &w.lv[l+2] //gate:allow bounds level table indexed by the recursion depth, sized to the order
		w.ob.NodeOut(ch.t, gc.t, kcur, gc.f, nr, w.leafF)
	default:
		// Recompute t_u below level u from the source (Algorithms 7 and
		// 8).
		for c := cLo; c < cHi; c++ {
			w.ob.AddHadamard(int(ch.fids[c]), kcur, w.down(l+1, c)) //gate:allow bounds factor row addressed by stored fiber id, data-dependent
		}
	}
}
