package kernels

import (
	"stef/internal/csf"
	"stef/internal/tensor"
)

// A step is what a root or non-root walk does at the nodes of one level. It depends
// only on the order, the mode and the memo set, so rootStep and modeStep
// choose it once per level and launch, and the recursion switches on it.
type step uint8

const (
	// Steps that compute t_l: the root walk's (rootWalk.rec) at every
	// level, the non-root walk's (modeWalk.down) at levels u..src-1.
	stepFold     step = iota // recurse into each child and fold it up
	stepNodeRun              // one nodeHad for the run of level d-3 children
	stepMemoFold             // down: fold up each child's memoized row; the children are the source level
	stepRun                  // root: one runHad for the run of level d-2 children
	stepFibers               // root: one fiberHad per level d-2 child, whose memo copy needs its sum
	stepLeaves               // root, order 2: one fiberSum over the leaf children

	// Steps above level u in the non-root walk (modeWalk.walk).
	stepDescend         // recurse into each child with its Khatri-Rao row
	stepOut             // add each level u child's t_u, from down, into its output row
	stepMemoOut         // add each level u child's memoized row into its output row (u = src)
	stepNodeOut         // u = d-3 from the leaves, at level d-4: one NodeOut
	stepNodePushOut     // u = d-2 from the leaves, at level d-4: one NodePushOut
	stepRunOut          // u = d-2 from the leaves, at level d-3 (order 3): one RunOut
	stepNodePushScatter // the leaf mode at level d-4: one NodePushScatter
	stepRunScatter      // the leaf mode at level d-3 (order 3): one RunScatter
	stepLeafScatter     // the leaf mode at level d-2 (order 2): one AddScaled per leaf
)

// walkLevel is level l of the tree as one thread's walk reads it
// during one launch: the level's child pointers, node ids and factor, the
// thread's window on its children at level l+1, the thread's accumulator
// for the level, and the walk's step.
type walkLevel struct {
	ptr        []int64
	fids       []int32
	cMin, cMax int64
	f          *tensor.Matrix
	t          []float64
	step       step
}

// window returns node n's child range at level l+1, clamped to the
// thread's window and never reversed.
func (lv *walkLevel) window(n int64) (int64, int64) {
	lo := max(lv.ptr[n], lv.cMin)
	return lo, max(lo, min(lv.ptr[n+1], lv.cMax))
}

// treeView is the tree as one thread's walk reads it during one
// launch, hoisted once so that the recursion indexes no tree, partition,
// factor or scratch table per node: levels 0..d-2, the level d-2 fibers
// and the leaves as a run to slice, and the leaf factor.
type treeView struct {
	lv     []walkLevel
	fibers fiberRun
	leafF  *tensor.Matrix
}

// view returns thread th's view of tree for one launch with the level
// factors lf: level l's children clamped to [lo[l+1], hi[l+1]), except the
// source level src, whose nodes are clamped to the thread's owned range
// [oLo, oHi). The caller sets each level's step. The level table lives on
// the scratch, so taking a view allocates nothing.
func (s *Scratch) view(th int, tree *csf.Tree, lf []*tensor.Matrix, lo, hi []int64, src int, oLo, oHi int64) treeView {
	d := tree.Order()
	lv := s.walk[th*s.slots : th*s.slots+d-1]
	for l := range lv {
		cMin, cMax := lo[l+1], hi[l+1]
		if l+1 == src {
			cMin, cMax = oLo, oHi
		}
		lv[l] = walkLevel{ptr: tree.PtrLevel(l), fids: tree.FidLevel(l), cMin: cMin, cMax: cMax, f: lf[l], t: s.vec(th, l)}
	}
	b := &lv[d-2]
	return treeView{
		lv:     lv,
		fibers: fiberRun{mids: b.fids, ptr: b.ptr, kMin: b.cMin, kMax: b.cMax, vals: tree.ValsLevel(), fids: tree.FidLevel(d - 1)},
		leafF:  lf[d-1],
	}
}

// run returns the level d-2 fibers [lo, hi) as a run.
func (v *treeView) run(lo, hi int64) fiberRun {
	fb := &v.fibers
	return fiberRun{mids: fb.mids[lo:hi], ptr: fb.ptr[lo : hi+1], kMin: fb.kMin, kMax: fb.kMax, vals: fb.vals, fids: fb.fids}
}

// nodeRun returns the level d-3 nodes [lo, hi) of lv as a node run.
func (v *treeView) nodeRun(lv *walkLevel, lo, hi int64) nodeRun {
	return nodeRun{nids: lv.fids[lo:hi], ptr: lv.ptr[lo : hi+1], cMin: lv.cMin, cMax: lv.cMax, fibers: v.fibers}
}
