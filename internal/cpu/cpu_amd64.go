//go:build amd64

package cpu

// hasAVX2 is the CPUID/XGETBV probe in cpu_amd64.s.
func hasAVX2() bool
