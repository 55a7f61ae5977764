package kernels

import (
	"fmt"
	"math/rand"
	"testing"

	"stef/internal/csf"
	"stef/internal/sched"
	"stef/internal/tensor"
)

// Benchmarks comparing the generated unrolled kernels against the generic
// recursion — the ablation for the code-generation design choice.
func BenchmarkSpecializedVsGeneric(b *testing.B) {
	for _, dims := range [][]int{{200, 4000, 9000}, {150, 800, 3000, 400}} {
		tt := tensor.Random(dims, 60000, []float64{1.2, 0, 0, 0}[:len(dims)], 3)
		d := len(dims)
		tree := csf.Build(tt, nil)
		const rank = 32
		factors := tensor.RandomFactors(tt.Dims, rank, 1)
		lf := LevelFactors(factors, tree.Perm())
		part := sched.NewPartition(tree, 4)
		save := make([]bool, d)
		save[1] = true
		partials := NewPartials(tree, rank, save)
		out0 := tensor.NewMatrix(tree.Dim(0), rank)
		RootMTTKRP(tree, lf, out0, partials, part)

		for u := 1; u < d; u++ {
			src := partials.SourceLevel(u)
			buf := NewOutBuf(tree.Dim(u), rank, 4, 0)
			sc := NewScratch(d, rank, 4)
			b.Run(fmt.Sprintf("d%d/mode%d/specialized", d, u), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					buf.Reset()
					ModeMTTKRPWith(tree, lf, u, partials, buf, part, sc)
				}
			})
			b.Run(fmt.Sprintf("d%d/mode%d/generic", d, u), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					buf.Reset()
					modeGeneric(tree, lf, u, src, partials, buf, part, sc)
				}
			})
		}
	}
}

// BenchmarkVecOps times the three SIMD-able rank-vector primitives, the
// generic Go loops against the AVX2 set, at the ranks the kernels run.
func BenchmarkVecOps(b *testing.B) {
	type set struct {
		name string
		ops  vecOps
	}
	sets := []set{{"generic", genericVecOps}}
	if simd, ok := simdVecOps(); ok {
		sets = append(sets, set{"avx2", simd})
	}
	for _, r := range []int{8, 16, 20, 32, 64} {
		rng := rand.New(rand.NewSource(int64(r)))
		dst, x, y := randVec(rng, r), randVec(rng, r), randVec(rng, r)
		for _, set := range sets {
			ops := set.ops
			b.Run(fmt.Sprintf("addScaled/R=%d/%s", r, set.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ops.addScaled(dst, 1e-9, x)
				}
			})
			b.Run(fmt.Sprintf("hadamardAccum/R=%d/%s", r, set.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ops.hadamardAccum(dst, x, y)
				}
			})
			b.Run(fmt.Sprintf("hadamardInto/R=%d/%s", r, set.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ops.hadamardInto(dst, x, y)
				}
			})
		}
	}
}

// BenchmarkFiberOps times the fiber primitives, the Go forms against the
// AVX2 set, at the ranks the workloads run and at fiber lengths from one
// leaf (the order-5 walks average about one) to 64: fiberHad on one fiber,
// and the three run forms on a run of 16 sibling fibers, reported per
// fiber. The matrices have 4096 rows, so the gathered rows stay
// cache-resident.
func BenchmarkFiberOps(b *testing.B) {
	type set struct {
		name string
		ops  vecOps
	}
	sets := []set{{"go", genericVecOps}}
	if simd, ok := simdVecOps(); ok {
		sets = append(sets, set{"avx2", simd})
	}
	const rows, fibers = 4096, 16
	for _, r := range []int{16, 20, 32, 64} {
		for _, n := range []int{1, 2, 8, 64} {
			rng := rand.New(rand.NewSource(int64(r*100 + n)))
			f := &tensor.Matrix{Rows: rows, Cols: r, Data: randVec(rng, rows*r)}
			out := tensor.NewMatrix(rows, r)
			run := fiberRun{mids: make([]int32, fibers), ptr: make([]int64, fibers+1), kMax: fibers * int64(n),
				vals: randVec(rng, fibers*n), fids: make([]int32, fibers*n)}
			for c := range run.mids {
				run.mids[c] = int32(rng.Intn(rows))
				run.ptr[c+1] = run.ptr[c] + int64(n)
			}
			for k := range run.fids {
				run.fids[k] = int32(rng.Intn(rows))
			}
			dst, child, g := randVec(rng, r), randVec(rng, r), randVec(rng, r)
			for _, set := range sets {
				ops := set.ops
				perFiber := func(b *testing.B) {
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*fibers), "ns/fiber")
				}
				b.Run(fmt.Sprintf("fiberHad/R=%d/n=%d/%s", r, n, set.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						ops.fiberHad(dst, child, g, run.vals[:n], run.fids[:n], f)
					}
				})
				b.Run(fmt.Sprintf("runHad/R=%d/n=%d/%s", r, n, set.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						ops.runHad(dst, child, f, run, f)
					}
					perFiber(b)
				})
				b.Run(fmt.Sprintf("runOut/R=%d/n=%d/%s", r, n, set.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						ops.runOut(out, child, g, run, f)
					}
					perFiber(b)
				})
				b.Run(fmt.Sprintf("runScatter/R=%d/n=%d/%s", r, n, set.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						ops.runScatter(out, child, g, f, run)
					}
					perFiber(b)
				})
			}
		}
	}
}
