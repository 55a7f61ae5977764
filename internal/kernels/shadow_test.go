//go:build shadowtrace

package kernels

import (
	"fmt"
	"strings"
	"testing"

	"stef/internal/csf"
	"stef/internal/sched"
	"stef/internal/tensor"
)

// allSaves returns the Save vector memoizing every interior level.
func allSaves(d int) []bool {
	save := make([]bool, d)
	for l := 1; l <= d-2; l++ {
		save[l] = true
	}
	return save
}

// expectShadowPanic fails the test unless the calling function panics with a
// shadow-oracle message.
func expectShadowPanic(t *testing.T) {
	t.Helper()
	r := recover()
	if r == nil {
		t.Fatal("write-disjointness violation escaped the shadow oracle")
	}
	msg, ok := r.(string)
	if !ok || !strings.HasPrefix(msg, "kernels: shadow: ") {
		t.Fatalf("panic %v, want a kernels: shadow: message", r)
	}
	t.Logf("oracle: %s", msg)
}

// TestShadowCleanRuns drives the full kernel suite (root and every non-root
// mode, orders 3 to 6, heavy boundary sharing) under the
// armed oracle: a clean Algorithm 3 implementation must never trip it, and
// the outputs must still match the COO reference.
func TestShadowCleanRuns(t *testing.T) {
	shapes := [][]int{
		{7, 9, 11},
		{6, 5, 9, 8},
		{3, 4, 5, 6, 4},
		{2, 300, 5},        // two root slices: heavy boundary sharing
		{3, 5, 6, 4, 3, 4}, // order 6
	}
	for _, dims := range shapes {
		tt := tensor.Random(dims, 400, nil, int64(len(dims))*7)
		tree := csf.Build(tt, nil)
		for _, threads := range []int{1, 2, 4} {
			part := sched.NewPartition(tree, threads)
			ctx := fmt.Sprintf("shadow dims=%v T=%d", dims, threads)
			runAllModes(t, tt, tree, part, allSaves(len(dims)), 5, ctx)
		}
	}
}

// TestShadowFlagsCorruptedPartition injects the bug class the oracle exists
// to catch: a partition whose Start bound disagrees with the leaf split, so
// one thread emits boundary-replica writes for nodes the partition never
// declared shared. The static analyzer cannot see this — the store indices
// are still partition-derived — but the dynamic oracle must panic.
func TestShadowFlagsCorruptedPartition(t *testing.T) {
	tt := tensor.Random([]int{300, 9, 4}, 900, nil, 33)
	tree := csf.Build(tt, nil)
	part := sched.NewPartition(tree, 2)
	if part.Start[1][0] < 2 {
		t.Fatalf("fixture partition has Start[1][0]=%d; need >= 2 to corrupt", part.Start[1][0])
	}
	// Shift thread 1's declared start two nodes early. Its loop now covers
	// nodes it does not own beyond its single admitted replica write.
	part.Start[1][0] -= 2

	rank := 4
	factors := tensor.RandomFactors(tt.Dims, rank, 99)
	lf := LevelFactors(factors, tree.Perm())
	partials := NewPartials(tree, rank, allSaves(3))
	out := tensor.NewMatrix(tree.Dim(0), rank)
	sc := NewScratch(3, rank, 2)
	for l := range sc.bound {
		sc.bound[l].Zero()
	}

	// par.Do does not forward goroutine panics, so arm the oracle by hand
	// and run the offending thread body on this goroutine.
	sc.shadow.begin(part)
	defer expectShadowPanic(t)
	rootGenericThread(1, tree, lf, out, partials, part, sc)
	t.Fatal("rootGenericThread returned; oracle never fired")
}

// TestShadowCrossThreadClaim checks the ownership half of the oracle
// directly: two threads claiming the same (level, node) canonical row.
func TestShadowCrossThreadClaim(t *testing.T) {
	tree := csf.Build(tensor.Random([]int{4, 5, 6}, 60, nil, 5), nil)
	var s shadowState
	s.begin(sched.NewPartition(tree, 2))
	s.own(0, 1, 42)
	s.own(0, 1, 43) // distinct node: fine
	s.own(0, 1, 42) // re-claim by the same thread: fine
	defer expectShadowPanic(t)
	s.own(1, 1, 42)
}

// TestShadowDisarmed checks that the oracle stays silent outside
// begin/end — tests call *Thread bodies directly without a launch.
func TestShadowDisarmed(t *testing.T) {
	var s shadowState
	s.own(0, 0, 7)
	s.own(1, 0, 7)
	s.boundary(1, 0, 7)
}
