//go:generate sh -c "go run stef/cmd/kernelgen -d 3 > modes3_gen.go"
//go:generate sh -c "go run stef/cmd/kernelgen -d 4 > modes4_gen.go"
//go:generate sh -c "go run stef/cmd/kernelgen -d 5 > modes5_gen.go"

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
// is duplicated; scattered output rows are combined through buf (private
// copies or atomic adds). The caller must Reset buf beforehand and Reduce
// it afterwards.
func ModeMTTKRPWith(tree *csf.Tree, factors []*tensor.Matrix, u int, partials *Partials, buf *OutBuf, part *sched.Partition, sc *Scratch) {
	lifeEnter(tree, sc)
	d := tree.Order()
	if u <= 0 || u >= d {
		panic(fmt.Sprintf("kernels: ModeMTTKRP mode %d out of range (order %d); use RootMTTKRP for mode 0", u, d))
	}
	sc.check(d, factors[0].Cols, part.T)
	src := partials.SourceLevel(u)

	// Dispatch to the unrolled specialisations for the common orders;
	// the generic recursion below is the semantic reference and handles
	// every other case.
	sc.shadow.begin(part)
	switch {
	case d == 3 && mode3Dispatch(tree, factors, u, src, partials, buf, part, sc):
	case d == 4 && mode4Dispatch(tree, factors, u, src, partials, buf, part, sc):
	case d == 5 && mode5Dispatch(tree, factors, u, src, partials, buf, part, sc):
	default:
		modeGeneric(tree, factors, u, src, partials, buf, part, sc)
	}
	sc.shadow.end()
}

// modeGeneric is the order-agnostic recursive kernel behind ModeMTTKRP; it
// is kept callable directly so tests can cross-check the specialisations.
// At T == 1 it calls the thread body directly, as the specialisations do,
// so a launch allocates nothing.
func modeGeneric(tree *csf.Tree, factors []*tensor.Matrix, u, src int, partials *Partials, buf *OutBuf, part *sched.Partition, sc *Scratch) {
	if part.T == 1 {
		modeGenericThread(0, tree, factors, u, src, partials, buf, part, sc)
		return
	}
	par.Do(part.T, func(th int) { //gate:allow escape multi-threaded launch; the T==1 path above stays allocation-free
		modeGenericThread(th, tree, factors, u, src, partials, buf, part, sc)
	})
}

// modeWalk is one thread's generic non-root walk. Its methods are the
// recursion, on a value that stays on the thread's stack, so the walk
// builds no closures.
type modeWalk struct {
	tree     *csf.Tree
	factors  []*tensor.Matrix
	partials *Partials
	sc       *Scratch
	ops      *vecOps
	ob       OutBufThread
	th       int
	d, u     int
	src      int
	s, e     []int64
	oLo, oHi int64
	// vecs[l] holds k_l for the current path at levels 1..u-1 (k_0
	// aliases a factor row) and accumulates t_l at levels u..src-1: one
	// scratch slot per level, so the two ranges never overlap.
	vecs  [][]float64
	leafF *tensor.Matrix
}

// modeGenericThread is thread th's share of the generic non-root MTTKRP.
func modeGenericThread(th int, tree *csf.Tree, factors []*tensor.Matrix, u, src int, partials *Partials, buf *OutBuf, part *sched.Partition, sc *Scratch) {
	oLo, oHi := part.OwnedRange(th, src)
	if oLo >= oHi {
		return
	}
	d := tree.Order()
	w := modeWalk{
		tree: tree, factors: factors, partials: partials, sc: sc, ops: &sc.ops,
		// Resolve the output handle once: the per-thread hot slab / remap
		// / replica indirection stays out of the emission loops.
		ob: buf.Thread(th),
		th: th, d: d, u: u, src: src,
		s: part.Start[th], e: part.Own[th+1],
		oLo: oLo, oHi: oHi,
		vecs:  sc.levelVecs(th),
		leafF: factors[d-1], //gate:allow bounds leaf factor hoisted once per launch; d-1 is the tree's last level
	}
	rLo, rHi := w.s[0], minI64(int64(tree.NumFibers(0)), w.e[0])
	for n := rLo; n < rHi; n++ {
		w.walk(0, n, nil)
	}
}

// window returns node n's child range at level l+1: the owned range at the
// source level, the touched range elsewhere, never reversed.
func (w *modeWalk) window(l int, n int64) (int64, int64) {
	lo, hi := w.s[l+1], w.e[l+1]
	if l+1 == w.src {
		lo, hi = w.oLo, w.oHi
	}
	cLo := maxI64(w.tree.PtrLevel(l)[n], lo)
	return cLo, max(cLo, minI64(w.tree.PtrLevel(l)[n+1], hi))
}

// down computes t_l for node n at level l by contracting everything below
// it down to the source level (u <= l < src; with the leaves as source,
// l < d-2, since the level d-2 fibers go through runHad).
func (w *modeWalk) down(l int, n int64) []float64 {
	tree, factors, src, d := w.tree, w.factors, w.src, w.d
	tl := w.vecs[l] //gate:allow bounds level arrays are indexed by the recursion depth, sized to the order
	w.ops.zero(tl)
	cLo, cHi := w.window(l, n)
	switch {
	case l+1 == src:
		for c := cLo; c < cHi; c++ {
			w.sc.shadow.own(w.th, src, c)
			w.ops.hadamardAccum(tl, w.partials.P[src].Row(int(c)), factors[src].Row(int(tree.FidLevel(src)[c]))) //gate:allow bounds factor row addressed by stored fiber id, data-dependent
		}
	case l+2 == src && src == d-1:
		// The children are level d-2 fibers: one fused call for their
		// leaf sums and fold-ups.
		run := runOf(tree, l+1, cLo, cHi, w.oLo, w.oHi)
		w.sc.shadow.ownRun(w.th, d-1, &run)
		w.ops.runHad(tl, w.vecs[l+1], factors[l+1], run, w.leafF) //gate:allow bounds level arrays are indexed by the recursion depth, sized to the order
	default:
		for c := cLo; c < cHi; c++ {
			w.ops.hadamardAccum(tl, w.down(l+1, c), factors[l+1].Row(int(tree.FidLevel(l + 1)[c]))) //gate:allow bounds factor row addressed by stored fiber id, data-dependent
		}
	}
	return tl
}

// walk descends levels 0..u-1 building the KRP row, then emits output
// contributions at level u.
func (w *modeWalk) walk(l int, n int64, kprev []float64) {
	tree, factors, partials, u, src, d := w.tree, w.factors, w.partials, w.u, w.src, w.d
	fid := int(tree.FidLevel(l)[n])
	cLo, cHi := w.window(l, n)
	var kcur []float64
	if l == 0 {
		kcur = factors[0].Row(fid)
	} else {
		kcur = w.vecs[l] //gate:allow bounds level arrays are indexed by the recursion depth, sized to the order
		w.ops.hadamardInto(kcur, kprev, factors[l].Row(fid))
	}
	switch {
	case u == d-1 && l == d-3:
		// Leaf mode: the children are level d-2 fibers, whose push-downs
		// and leaf scatters take one fused call.
		run := runOf(tree, d-2, cLo, cHi, w.oLo, w.oHi)
		w.sc.shadow.ownRun(w.th, d-1, &run)
		w.ob.RunScatter(w.vecs[d-2], kcur, factors[d-2], run) //gate:allow bounds level arrays are indexed by the recursion depth, sized to the order
	case l+1 < u:
		for c := cLo; c < cHi; c++ {
			w.walk(l+1, c, kcur)
		}
	case u == d-1:
		// Order 2's leaf mode: k_0 is a factor row, with no push-down to
		// fuse.
		vals, leafFids := tree.ValsLevel(), tree.FidLevel(d-1) //gate:allow bounds leaf level of an order-2 tree; d-1 is its last level
		for k := cLo; k < cHi; k++ {
			w.sc.shadow.own(w.th, d-1, k)
			w.ob.AddScaled(int(leafFids[k]), vals[k], kcur) //gate:allow bounds leaf values and factor rows are addressed by stored fiber ids, data-dependent
		}
	case u == src:
		// Memoized at exactly level u: one MTTV per owned fiber
		// (Algorithm 6).
		for c := cLo; c < cHi; c++ {
			w.sc.shadow.own(w.th, src, c)
			w.ob.AddHadamard(int(tree.FidLevel(u)[c]), kcur, partials.P[u].Row(int(c))) //gate:allow bounds factor row addressed by stored fiber id, data-dependent
		}
	case u == d-2 && src == d-1:
		// Level u = d-2 recomputed from the leaves (Algorithm 8): one
		// fused call for the children's sums, each folded into its output
		// row.
		run := runOf(tree, u, cLo, cHi, w.oLo, w.oHi)
		w.sc.shadow.ownRun(w.th, d-1, &run)
		w.ob.RunOut(w.vecs[u], kcur, run, w.leafF) //gate:allow bounds level arrays are indexed by the recursion depth, sized to the order
	default:
		// Recompute t_u below level u from the source (Algorithms 7 and
		// 8).
		for c := cLo; c < cHi; c++ {
			w.ob.AddHadamard(int(tree.FidLevel(u)[c]), kcur, w.down(u, c)) //gate:allow bounds factor row addressed by stored fiber id, data-dependent
		}
	}
}
