//go:build !race

package cpu

// RaceBuild is false outside race builds; see race_on.go.
const RaceBuild = false
