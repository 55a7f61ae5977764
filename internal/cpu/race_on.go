//go:build race

package cpu

// RaceBuild keeps race builds on the Go loops: the race detector cannot
// see stores made by assembly.
const RaceBuild = true
