// Package cpu is the module's one CPU-feature probe. The MTTKRP kernels
// (internal/kernels) and the dense ALS update (internal/dense) both pick
// their AVX2 assembly from it by the same rule: AVX2 && !RaceBuild. The
// probe is a few lines of CPUID and XGETBV; golang.org/x/sys/cpu would do
// the same, but the module takes no dependencies.
package cpu

// AVX2 records, once at start-up, whether CPUID and XGETBV report AVX2
// with the YMM state enabled by the OS. It is false off amd64.
var AVX2 = hasAVX2()
