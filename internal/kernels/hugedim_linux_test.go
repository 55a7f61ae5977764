package kernels

import (
	"fmt"
	"syscall"
)

// reserveVirtual maps anonymous read-write regions of the given sizes, all
// at once, and unmaps them again. It returns the first mapping's error: on
// a host whose overcommit policy refuses reservations that large, the Go
// runtime would die with a fatal out-of-memory error when it maps the
// same buffers for the heap, which no test can recover from.
func reserveVirtual(sizes []int) error {
	var maps [][]byte
	defer func() {
		for _, m := range maps {
			syscall.Munmap(m)
		}
	}()
	for _, n := range sizes {
		m, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
		if err != nil {
			return fmt.Errorf("mapping %d bytes: %w", n, err)
		}
		maps = append(maps, m)
	}
	return nil
}
