//go:build amd64

package kernels

// Go declarations of the AVX2 primitives in vec_amd64.s. The .s file is
// assembled in every amd64 build, race builds included, so the contract
// tests reach it everywhere; only opsFor's selection skips it under -race.

//go:noescape
func addScaledAVX2(dst []float64, s float64, src []float64)

//go:noescape
func hadamardAccumAVX2(dst, a, b []float64)

//go:noescape
func hadamardIntoAVX2(dst, a, b []float64)

func cpuHasAVX2() bool

// hasAVX2 records, once at start-up, whether CPUID and XGETBV report AVX2
// with the YMM state enabled by the OS.
var hasAVX2 = cpuHasAVX2()

// simdVecOps returns the AVX2 set and whether this CPU can run it. zero
// stays the Go loop, which already lowers to the runtime's memclr.
func simdVecOps() (vecOps, bool) {
	return vecOps{zero: zero, addScaled: addScaledAVX2, hadamardAccum: hadamardAccumAVX2, hadamardInto: hadamardIntoAVX2}, hasAVX2
}
