//go:build lifetrace

package kernels

import (
	"math"
	"testing"

	"stef/internal/csf"
	"stef/internal/sched"
	"stef/internal/tensor"
)

// TestLifeFillLeavesBoundOutput pins that poisoning a released workspace
// never writes a caller's matrix: a launch bound by ResetInto and never
// reduced (a walk that panicked, say) leaves its buffer bound to the
// caller's output, and LifeFill must fill the buffer's replicas but leave
// that output as the walk left it.
func TestLifeFillLeavesBoundOutput(t *testing.T) {
	const rank = 4
	tt := tensor.Random([]int{5, 40, 60}, 500, []float64{0, 1.5, 1.5}, 3)
	tree := csf.Build(tt, nil)
	lf := LevelFactors(tensor.RandomFactors(tt.Dims, rank, 5), tree.Perm())
	for _, threads := range []int{1, 2, 3} {
		part := sched.NewPartition(tree, threads)
		partials := NewPartials(tree, rank, make([]bool, 3))
		buf := NewOutBufPlanned(PlanAccum(censusFor(tree, part, partials.Save, 2), rank, threads, AccumPriv, 0))
		out := filled(tree.Dim(2), rank, 3)
		buf.ResetInto(out)
		ModeMTTKRP(tree, lf, 2, partials, buf, part) // abandoned: no Reduce
		kept := out.Clone()
		buf.LifeFill(math.NaN())
		for i, v := range kept.Data {
			if math.Float64bits(out.Data[i]) != math.Float64bits(v) {
				t.Fatalf("T %d: LifeFill wrote element %d of the bound output: %v, was %v", threads, i, out.Data[i], v)
			}
		}
		for th := 1; th < threads; th++ {
			if v := buf.priv[th].Data[0]; !math.IsNaN(v) {
				t.Fatalf("T %d: LifeFill left replica %d's first cell %v, want NaN", threads, th, v)
			}
		}
	}
}
