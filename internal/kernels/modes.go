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
func modeGeneric(tree *csf.Tree, factors []*tensor.Matrix, u, src int, partials *Partials, buf *OutBuf, part *sched.Partition, sc *Scratch) {
	d := tree.Order()
	par.Do(part.T, func(th int) {
		s := part.Start[th]
		e := part.Own[th+1]
		oLo, oHi := part.OwnedRange(th, src)
		if oLo >= oHi {
			return
		}
		// Resolve the output handle once: the per-thread hot slab / remap /
		// replica indirection stays out of the emission loops.
		ob := buf.Thread(th)
		// kv[l] holds k_l for the current path (levels 1..u-1; k_0
		// aliases a factor row). tmp[l] accumulates t_l for levels
		// u..src-1. Both draw their rank vectors from the scratch; the
		// slot ranges never overlap.
		kv := make([][]float64, u)
		for l := 1; l < u; l++ {
			kv[l] = sc.vec(th, l) //gate:allow bounds scratch slots are sized to the order
		}
		tmp := make([][]float64, src)
		for l := u; l < src; l++ {
			tmp[l] = sc.vec(th, l) //gate:allow bounds scratch slots are sized to the order
		}
		// Rebind the rank-vector primitives to the scratch's set (vec.go);
		// the names shadow the generic package functions on purpose.
		zero, addScaled, hadamardAccum, hadamardInto := sc.ops.zero, sc.ops.addScaled, sc.ops.hadamardAccum, sc.ops.hadamardInto

		// down computes t_l for node n at level l (u <= l < src) by
		// contracting everything below it down to the source level.
		var down func(l int, n int64) []float64
		down = func(l int, n int64) []float64 {
			tl := tmp[l]
			zero(tl)
			var cLo, cHi int64
			if l+1 == src {
				cLo = maxI64(tree.PtrLevel(l)[n], oLo)
				cHi = minI64(tree.PtrLevel(l)[n+1], oHi)
			} else {
				cLo = maxI64(tree.PtrLevel(l)[n], s[l+1])
				cHi = minI64(tree.PtrLevel(l)[n+1], e[l+1])
			}
			switch {
			case l+1 == src && src == d-1:
				for k := cLo; k < cHi; k++ {
					sc.shadow.own(th, d-1, k)
					addScaled(tl, tree.ValsLevel()[k], factors[d-1].Row(int(tree.FidLevel(d - 1)[k]))) //gate:allow bounds leaf values and factor rows are addressed by stored fiber ids, data-dependent
				}
			case l+1 == src:
				for c := cLo; c < cHi; c++ {
					sc.shadow.own(th, src, c)
					hadamardAccum(tl, partials.P[src].Row(int(c)), factors[src].Row(int(tree.FidLevel(src)[c]))) //gate:allow bounds factor row addressed by stored fiber id, data-dependent
				}
			default:
				for c := cLo; c < cHi; c++ {
					hadamardAccum(tl, down(l+1, c), factors[l+1].Row(int(tree.FidLevel(l + 1)[c]))) //gate:allow bounds factor row addressed by stored fiber id, data-dependent
				}
			}
			return tl
		}

		// walk descends levels 0..u-1 building the KRP row, then emits
		// output contributions at level u.
		var walk func(l int, n int64, kprev []float64)
		walk = func(l int, n int64, kprev []float64) {
			fid := int(tree.FidLevel(l)[n])
			var kcur []float64
			if l == 0 {
				kcur = factors[0].Row(fid)
			} else {
				kcur = kv[l]
				hadamardInto(kcur, kprev, factors[l].Row(fid))
			}
			var cLo, cHi int64
			if l+1 == src {
				cLo = maxI64(tree.PtrLevel(l)[n], oLo)
				cHi = minI64(tree.PtrLevel(l)[n+1], oHi)
			} else {
				cLo = maxI64(tree.PtrLevel(l)[n], s[l+1])
				cHi = minI64(tree.PtrLevel(l)[n+1], e[l+1])
			}
			switch {
			case l+1 < u:
				for c := cLo; c < cHi; c++ {
					walk(l+1, c, kcur)
				}
			case u == d-1:
				// Leaf mode: pure Khatri-Rao push-down; l+1 is
				// the leaf level (src == d-1 here).
				for k := cLo; k < cHi; k++ {
					sc.shadow.own(th, d-1, k)
					ob.AddScaled(int(tree.FidLevel(d - 1)[k]), tree.ValsLevel()[k], kcur) //gate:allow bounds leaf values and factor rows are addressed by stored fiber ids, data-dependent
				}
			case u == src:
				// Memoized at exactly level u: one MTTV per
				// owned fiber (Algorithm 6).
				for c := cLo; c < cHi; c++ {
					sc.shadow.own(th, src, c)
					ob.AddHadamard(int(tree.FidLevel(u)[c]), kcur, partials.P[u].Row(int(c))) //gate:allow bounds factor row addressed by stored fiber id, data-dependent
				}
			default:
				// Recompute t_u below level u from the source
				// (Algorithms 7 and 8).
				for c := cLo; c < cHi; c++ {
					ob.AddHadamard(int(tree.FidLevel(u)[c]), kcur, down(u, c)) //gate:allow bounds factor row addressed by stored fiber id, data-dependent
				}
			}
		}

		rLo := s[0]
		rHi := minI64(int64(tree.NumFibers(0)), e[0])
		for n := rLo; n < rHi; n++ {
			walk(0, n, nil)
		}
	})
}
