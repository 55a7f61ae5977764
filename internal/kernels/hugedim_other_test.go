//go:build !linux

package kernels

// reserveVirtual has no portable probe off linux; the test attempts its
// allocations directly.
func reserveVirtual([]int) error { return nil }
