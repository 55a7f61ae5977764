package cpu

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestSIMDDetectionMatchesCPUInfo checks the CPUID/XGETBV probe against
// the kernel's own view: the avx2 flag in /proc/cpuinfo.
func TestSIMDDetectionMatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("compares against /proc/cpuinfo on linux/amd64 only, not %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot read /proc/cpuinfo: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "flags" {
			flags = strings.Fields(v)
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	if want := slices.Contains(flags, "avx2"); AVX2 != want {
		t.Fatalf("detected AVX2 = %v, /proc/cpuinfo lists avx2 = %v", AVX2, want)
	}
}
