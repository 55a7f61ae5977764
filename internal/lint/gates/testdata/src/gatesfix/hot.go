// Package gatesfix is a compiler-diagnostic fixture for the gates tests:
// Hot seeds one heap escape and one bounds check inside a loop body, so the
// harness must report both as violations; Allowed carries the same seeds
// under //gate:allow directives and must stay silent.
package gatesfix

import "slices"

// Hot allocates and indexes data-dependently inside its loop on purpose.
func Hot(xs []int, idx []int) []*int {
	out := make([]*int, 0, len(xs))
	for i := range xs {
		v := new(int)
		*v = xs[idx[i]]
		out = append(out, v)
	}
	return out
}

// Allowed is Hot with every in-loop diagnostic justified.
func Allowed(xs []int, idx []int) []*int {
	out := make([]*int, 0, len(xs))
	for i := range xs {
		v := new(int)   //gate:allow escape fixture: per-element box is the function's contract
		*v = xs[idx[i]] //gate:allow bounds fixture: idx entries are data-dependent
		out = append(out, v)
	}
	return out
}

// Sorted instantiates generic standard-library code, whose diagnostics the
// compiler reports at GOROOT positions.
func Sorted(xs []int) { slices.Sort(xs) }

//gate:allow directive that suppresses nothing, for the stale test
var Unused = 0
