//go:build !amd64

package dense

// Off amd64 there are no AVX2 kernels: cpu.AVX2 is false, so useLanes
// never selects the passes that would call these.

func gatherLanesAVX2(b, src []float64, off []int) { panic("dense: no AVX2 kernels off amd64") }

func solveLanesAVX2(b, l, lt []float64) { panic("dense: no AVX2 kernels off amd64") }

func scatterLanesAVX2(dst, b []float64, off []int, stats []float64, clamp bool, stat colStat) {
	panic("dense: no AVX2 kernels off amd64")
}

func divRowsAVX2(rows, norms []float64) { panic("dense: no AVX2 kernels off amd64") }

func gram4AVX2(g, r0, r1, r2, r3 []float64) { panic("dense: no AVX2 kernels off amd64") }
