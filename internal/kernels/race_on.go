//go:build race

package kernels

// raceBuild keeps race builds on the Go loops: the race detector cannot
// see stores made by assembly.
const raceBuild = true
