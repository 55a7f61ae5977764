//go:build amd64

package dense

// Go declarations of the AVX2 kernels in lanes_amd64.s. The .s file is
// assembled in every amd64 build, race builds included, so the contract
// tests reach it everywhere; only useLanes skips it under -race. Each
// //asm:writes line names the arguments the kernel stores into, for the
// write-disjoint analyzer.

//asm:writes b
//go:noescape
func gatherLanesAVX2(b, src []float64, off []int)

//asm:writes b
//go:noescape
func solveLanesAVX2(b, l, lt []float64)

//asm:writes dst stats
//go:noescape
func scatterLanesAVX2(dst, b []float64, off []int, stats []float64, clamp bool, stat colStat)

//asm:writes rows
//go:noescape
func divRowsAVX2(rows, norms []float64)

//asm:writes g
//go:noescape
func gram4AVX2(g, r0, r1, r2, r3 []float64)
