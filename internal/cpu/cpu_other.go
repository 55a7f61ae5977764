//go:build !amd64

package cpu

// hasAVX2 reports that there is no AVX2 off amd64.
func hasAVX2() bool { return false }
