//go:build !race

package kernels

// raceBuild is false outside race builds; see race_on.go.
const raceBuild = false
