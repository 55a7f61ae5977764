package kernels

import (
	"fmt"
	"math/rand"
	"testing"

	"stef/internal/tensor"
)

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
// cache-resident. It then times the two-level forms against the one-level
// calls the walks made per node before them (see benchNodeOps), and the
// run forms on restarts' root-walk shape (see benchRunShape).
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
	benchNodeOps(b)
	benchRunShape(b)
}

// benchRunShape times the three run forms on restarts' root-walk shape
// (uber, order 4, memo at level 1, R = 20): one call per level-1 node,
// each a run of 8–14 level-2 fibers (11 on average) of one to four
// leaves in the ratio 3:4:3:2 (2.33 on average). Each op walks 256 such
// runs, as a root walk walks its level-1 nodes; ns/node is per call and
// ns/leaf per leaf. R = 10 and 50 time a rank whose rest runs as a masked
// pass.
func benchRunShape(b *testing.B) {
	type set struct {
		name string
		ops  vecOps
	}
	sets := []set{{"go", genericVecOps}}
	if simd, ok := simdVecOps(); ok {
		sets = append(sets, set{"avx2", simd})
	}
	const rows, nodes = 4096, 256
	rng := rand.New(rand.NewSource(25))
	runs := make([]fiberRun, nodes)
	var fibers, leaves int
	for range runs {
		fibers += 8 + rng.Intn(7)
	}
	mids, ptr := make([]int32, fibers), make([]int64, fibers+1)
	for c := range mids {
		mids[c] = int32(rng.Intn(rows))
		ptr[c+1] = ptr[c] + int64([]int{1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4}[rng.Intn(12)])
	}
	leaves = int(ptr[fibers])
	vals, fids := randVec(rng, leaves), make([]int32, leaves)
	for k := range fids {
		fids[k] = int32(rng.Intn(rows))
	}
	for n, lo := 0, 0; n < nodes; n++ {
		hi := lo + (fibers-lo)/(nodes-n)
		runs[n] = fiberRun{mids: mids[lo:hi], ptr: ptr[lo : hi+1], kMax: int64(leaves), vals: vals, fids: fids}
		lo = hi
	}
	for _, r := range []int{10, 20, 32, 50} {
		gm := &tensor.Matrix{Rows: rows, Cols: r, Data: randVec(rng, rows*r)}
		f := &tensor.Matrix{Rows: rows, Cols: r, Data: randVec(rng, rows*r)}
		out := tensor.NewMatrix(rows, r)
		dst, child, g := randVec(rng, r), randVec(rng, r), randVec(rng, r)
		for _, set := range sets {
			ops := set.ops
			for _, bm := range []struct {
				name string
				run  func(r fiberRun)
			}{
				{"runHad", func(r fiberRun) { ops.runHad(dst, child, gm, r, f) }},
				{"runOut", func(r fiberRun) { ops.runOut(out, child, g, r, f) }},
				{"runScatter", func(r fiberRun) { ops.runScatter(out, child, g, gm, r) }},
			} {
				b.Run(fmt.Sprintf("restarts/%s/R=%d/%s", bm.name, r, set.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						for _, run := range runs {
							bm.run(run)
						}
					}
					ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
					b.ReportMetric(ns/nodes, "ns/node")
					b.ReportMetric(ns/float64(leaves), "ns/leaf")
				})
			}
		}
	}
}

// benchNodeOps times the four two-level forms on kernel-heavy's order-5
// shape: one call per level d-4 node holding 280 level d-3 nodes of 1.75
// level d-2 fibers each (three in four nodes hold two), each fiber of 1.05
// leaves (one in twenty holds two). Next to each form, "perNode" makes the
// one-level calls the walks made per node before, through the same set:
// zero, runHad and hadamardAccum for nodeHad and nodeOut, hadamardInto and
// runOut or runScatter for the pushes. Both report ns/node. R = 10 and 50
// time a rank whose rest runs as a masked pass.
func benchNodeOps(b *testing.B) {
	type set struct {
		name string
		ops  vecOps
	}
	sets := []set{{"go", genericVecOps}}
	if simd, ok := simdVecOps(); ok {
		sets = append(sets, set{"avx2", simd})
	}
	const rows, nodes = 4096, 280
	rng := rand.New(rand.NewSource(20))
	nr := nodeRun{nids: make([]int32, nodes), ptr: make([]int64, nodes+1)}
	for n := range nr.nids {
		nr.nids[n] = int32(rng.Intn(rows))
		nr.ptr[n+1] = nr.ptr[n] + 1
		if rng.Intn(4) != 0 {
			nr.ptr[n+1]++
		}
	}
	fibers := int(nr.ptr[nodes])
	nr.cMax = int64(fibers)
	run := fiberRun{mids: make([]int32, fibers), ptr: make([]int64, fibers+1)}
	for c := range run.mids {
		run.mids[c] = int32(rng.Intn(rows))
		run.ptr[c+1] = run.ptr[c] + 1
		if rng.Intn(20) == 0 {
			run.ptr[c+1]++
		}
	}
	leaves := int(run.ptr[fibers])
	run.kMax, run.vals, run.fids = int64(leaves), randVec(rng, leaves), make([]int32, leaves)
	for k := range run.fids {
		run.fids[k] = int32(rng.Intn(rows))
	}
	nr.fibers = run
	for _, r := range []int{10, 16, 20, 32, 50, 64} {
		gm := &tensor.Matrix{Rows: rows, Cols: r, Data: randVec(rng, rows*r)}
		fm := &tensor.Matrix{Rows: rows, Cols: r, Data: randVec(rng, rows*r)}
		f := &tensor.Matrix{Rows: rows, Cols: r, Data: randVec(rng, rows*r)}
		out := tensor.NewMatrix(rows, r)
		dst, t, child, k := randVec(rng, r), randVec(rng, r), randVec(rng, r), randVec(rng, r)
		perNode := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes), "ns/node")
		}
		for _, set := range sets {
			ops := set.ops
			for _, bm := range []struct {
				name          string
				fused, oneRun func()
			}{
				{"nodeHad",
					func() { ops.nodeHad(dst, t, child, gm, fm, nr, f) },
					func() {
						for n, nid := range nr.nids {
							ops.zero(t)
							ops.runHad(t, child, fm, nr.run(n), f)
							ops.hadamardAccum(dst, t, gm.Row(int(nid)))
						}
					}},
				{"nodeOut",
					func() { ops.nodeOut(out, t, child, k, fm, nr, f) },
					func() {
						for n, nid := range nr.nids {
							ops.zero(t)
							ops.runHad(t, child, fm, nr.run(n), f)
							ops.hadamardAccum(out.Row(int(nid)), k, t)
						}
					}},
				{"nodePushOut",
					func() { ops.nodePushOut(out, t, child, k, gm, nr, f) },
					func() {
						for n, nid := range nr.nids {
							ops.hadamardInto(t, k, gm.Row(int(nid)))
							ops.runOut(out, child, t, nr.run(n), f)
						}
					}},
				{"nodePushScatter",
					func() { ops.nodePushScatter(out, child, t, k, gm, fm, nr) },
					func() {
						for n, nid := range nr.nids {
							ops.hadamardInto(t, k, gm.Row(int(nid)))
							ops.runScatter(out, child, t, fm, nr.run(n))
						}
					}},
			} {
				b.Run(fmt.Sprintf("%s/R=%d/%s/fused", bm.name, r, set.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						bm.fused()
					}
					perNode(b)
				})
				b.Run(fmt.Sprintf("%s/R=%d/%s/perNode", bm.name, r, set.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						bm.oneRun()
					}
					perNode(b)
				})
			}
		}
	}
}
