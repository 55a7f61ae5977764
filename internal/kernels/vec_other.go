//go:build !amd64

package kernels

// simdVecOps reports that there is no SIMD set off amd64, so opsFor gives
// the generic Go loops.
func simdVecOps() (vecOps, bool) { return vecOps{}, false }
