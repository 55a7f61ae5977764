package kernels

import (
	"fmt"
	"testing"

	"stef/internal/csf"
	"stef/internal/sched"
	"stef/internal/tensor"
)

// TestSpecializedMatchesGeneric cross-checks the unrolled 3D/4D root
// kernels against the generic recursive kernel bit for bit (same
// floating-point evaluation order), across thread counts and memo subsets.
func TestSpecializedMatchesGeneric(t *testing.T) {
	shapes := [][]int{
		{7, 9, 11},
		{2, 300, 5},
		{6, 5, 9, 8},
		{3, 4, 200, 2},
		{4, 5, 6, 7, 8},
		{2, 100, 3, 4, 5},
	}
	for _, dims := range shapes {
		tt := tensor.Random(dims, 500, nil, 31)
		d := len(dims)
		tree := csf.Build(tt, nil)
		factors := tensor.RandomFactors(tt.Dims, 5, 3)
		lf := LevelFactors(factors, tree.Perm())
		for _, threads := range []int{1, 2, 5, 9} {
			part := sched.NewPartition(tree, threads)
			for _, save := range memoSubsets(d) {
				ctx := fmt.Sprintf("dims=%v T=%d save=%v", dims, threads, save)

				pGen := NewPartials(tree, 5, save)
				outGen := tensor.NewMatrix(tree.Dim(0), 5)
				scGen := NewScratch(d, 5, threads)
				rootGeneric(tree, lf, outGen, pGen, part, scGen)
				mergeBoundaries(tree, outGen, pGen, part, scGen.bound)

				pSpec := NewPartials(tree, 5, save)
				outSpec := tensor.NewMatrix(tree.Dim(0), 5)
				scSpec := NewScratch(d, 5, threads)
				switch d {
				case 3:
					root3(tree, lf, outSpec, pSpec, part, scSpec)
				case 4:
					root4(tree, lf, outSpec, pSpec, part, scSpec)
				case 5:
					root5(tree, lf, outSpec, pSpec, part, scSpec)
				}
				mergeBoundaries(tree, outSpec, pSpec, part, scSpec.bound)

				if diff := outSpec.MaxAbsDiff(outGen); diff != 0 {
					t.Fatalf("%s: output differs by %g", ctx, diff)
				}
				for l := 1; l <= d-2; l++ {
					if !save[l] {
						continue
					}
					if diff := pSpec.P[l].MaxAbsDiff(pGen.P[l]); diff != 0 {
						t.Fatalf("%s: memoized level %d differs by %g", ctx, l, diff)
					}
				}
			}
		}
	}
}

// TestModeSpecializedMatchesGeneric cross-checks every specialised
// non-root kernel against the generic recursion bit for bit.
func TestModeSpecializedMatchesGeneric(t *testing.T) {
	for _, dims := range [][]int{{7, 9, 11}, {2, 300, 5}, {6, 5, 9, 8}, {3, 4, 200, 2}, {4, 5, 6, 7, 8}, {2, 100, 3, 4, 5}} {
		tt := tensor.Random(dims, 500, nil, 77)
		d := len(dims)
		tree := csf.Build(tt, nil)
		factors := tensor.RandomFactors(tt.Dims, 5, 3)
		lf := LevelFactors(factors, tree.Perm())
		for _, threads := range []int{1, 3, 8} {
			part := sched.NewPartition(tree, threads)
			for _, save := range memoSubsets(d) {
				partials := NewPartials(tree, 5, save)
				out0 := tensor.NewMatrix(tree.Dim(0), 5)
				RootMTTKRP(tree, lf, out0, partials, part)
				for u := 1; u < d; u++ {
					ctx := fmt.Sprintf("dims=%v T=%d save=%v u=%d", dims, threads, save, u)
					src := partials.SourceLevel(u)

					bufSpec := NewOutBuf(tree.Dim(u), 5, threads, 1<<40)
					bufSpec.Reset()
					ModeMTTKRP(tree, lf, u, partials, bufSpec, part)
					gotSpec := tensor.NewMatrix(tree.Dim(u), 5)
					bufSpec.Reduce(gotSpec)

					bufGen := NewOutBuf(tree.Dim(u), 5, threads, 1<<40)
					bufGen.Reset()
					modeGeneric(tree, lf, u, src, partials, bufGen, part, NewScratch(d, 5, threads))
					gotGen := tensor.NewMatrix(tree.Dim(u), 5)
					bufGen.Reduce(gotGen)

					if diff := gotSpec.MaxAbsDiff(gotGen); diff != 0 {
						t.Fatalf("%s: specialised differs from generic by %g", ctx, diff)
					}
				}
			}
		}
	}
}

// TestDispatchUsesSpecialized pins the dispatch: orders 3 and 4 must not
// regress to the generic path (this is a behavioural check via the public
// API — results must stay correct — plus a direct call check above; here we
// simply exercise the public entry on both orders).
func TestDispatchUsesSpecialized(t *testing.T) {
	for _, dims := range [][]int{{6, 7, 8}, {4, 5, 6, 7}} {
		tt := tensor.Random(dims, 300, nil, 9)
		tree := csf.Build(tt, nil)
		part := sched.NewPartition(tree, 3)
		factors := tensor.RandomFactors(tt.Dims, 4, 1)
		lf := LevelFactors(factors, tree.Perm())
		save := make([]bool, len(dims))
		save[1] = true
		partials := NewPartials(tree, 4, save)
		out := tensor.NewMatrix(tree.Dim(0), 4)
		RootMTTKRP(tree, lf, out, partials, part)
		want := Reference(tt, factors, tree.Perm()[0])
		if diff := out.MaxAbsDiff(want); diff > 1e-9*(1+want.NormFrobenius()) {
			t.Fatalf("dims %v: dispatch result differs from reference by %g", dims, diff)
		}
	}
}

// TestNodeFallbackMatchesGeneric holds the order-4 and order-5 non-root
// walks on planned buffers to the generic walk. A private slab takes the
// fused two-level calls; hybrid and atomic buffers take the output
// buffer's node-by-node fallback. At T = 1 every strategy must match the
// generic walk bit for bit; at T = 3, where CAS adds land in any order,
// both must match the reference.
func TestNodeFallbackMatchesGeneric(t *testing.T) {
	for _, dims := range [][]int{{6, 5, 9, 8}, {4, 5, 6, 7, 8}} {
		tt := tensor.Random(dims, 600, []float64{1.5, 0, 0, 0, 0}[:len(dims)], 19)
		d := len(dims)
		tree := csf.Build(tt, nil)
		factors := tensor.RandomFactors(tt.Dims, 6, 3)
		lf := LevelFactors(factors, tree.Perm())
		save := make([]bool, d)
		for _, threads := range []int{1, 3} {
			part := sched.NewPartition(tree, threads)
			partials := NewPartials(tree, 6, save)
			RootMTTKRP(tree, lf, tensor.NewMatrix(tree.Dim(0), 6), partials, part)
			for u := 1; u < d; u++ {
				rw := censusFor(tree, part, save, u)
				for _, strat := range []AccumStrategy{AccumPriv, AccumHybrid, AccumAtomic} {
					ctx := fmt.Sprintf("dims=%v T=%d u=%d %v", dims, threads, u, strat)
					run := func(generic bool) *tensor.Matrix {
						buf := NewOutBufPlanned(PlanAccum(rw, 6, threads, strat, int64(2*threads*6)))
						buf.Reset()
						if generic {
							modeGeneric(tree, lf, u, partials.SourceLevel(u), partials, buf, part, NewScratch(d, 6, threads))
						} else {
							ModeMTTKRP(tree, lf, u, partials, buf, part)
						}
						got := tensor.NewMatrix(tree.Dim(u), 6)
						buf.Reduce(got)
						return got
					}
					spec, gen := run(false), run(true)
					if threads == 1 {
						if diff := spec.MaxAbsDiff(gen); diff != 0 {
							t.Fatalf("%s: specialised differs from generic by %g", ctx, diff)
						}
						continue
					}
					want := Reference(tt, factors, tree.Perm()[u])
					relClose(t, spec, want, ctx+" specialised")
					relClose(t, gen, want, ctx+" generic")
				}
			}
		}
	}
}
