//go:build lifetrace

package kernels

import (
	"math"
	"sync/atomic"

	"stef/internal/csf"
	"stef/internal/tensor"
)

// lifeScratchState is the recording form of the workspace-lifetime oracle:
// Solver.Release stamps the scratch poisoned (via core's LifePoison) and
// every kernel entry re-checks the stamp and the tree's closed flag, so a
// solve racing a Release or an arena eviction dies with a diagnosis
// instead of corrupting factors with recycled or NaN data.
type lifeScratchState struct {
	poisoned atomic.Bool
}

// LifeSetPoisoned stamps the scratch released (true) or back in service
// (false) and fills its accumulators accordingly: NaN on poison, so any
// read that slips past the entry checks propagates visibly into results;
// zero on revival, the freshly-constructed state the kernels assume.
func (s *Scratch) LifeSetPoisoned(p bool) {
	s.life.poisoned.Store(p)
	fill := 0.0
	if p {
		fill = math.NaN()
	}
	for i := range s.vecs {
		s.vecs[i] = fill
	}
	for _, m := range s.bound {
		lifeFillMatrix(m, fill)
	}
}

// LifeFill overwrites every accumulation cell the buffer owns with v. The
// cpd lifetrace registry poisons released workspaces with NaN and restores
// +0 (the clean state a completed Reduce leaves) when a workspace is
// re-acquired from the pool. Any other fill leaves the buffer for the next
// Reset to clear along its journals. A planned priv buffer is unbound
// first, so a matrix ResetInto bound to a launch that never reduced is
// not written.
func (b *OutBuf) LifeFill(v float64) {
	b.launched = math.Float64bits(v) != 0
	b.unbind()
	for _, m := range b.priv {
		lifeFillMatrix(m, v)
	}
	bits := math.Float64bits(v)
	for i := range b.shared {
		b.shared[i] = bits
	}
	for i := range b.hot {
		b.hot[i] = v
	}
}

func lifeFillMatrix(m *tensor.Matrix, v float64) {
	if m == nil {
		return
	}
	for i := range m.Data {
		m.Data[i] = v
	}
}

// lifeEnter is the kernel-entry lifetime check.
func lifeEnter(tree *csf.Tree, sc *Scratch) {
	if tree.Closed() {
		panic("kernels: lifetrace: kernel entered with a closed tree; its level views are invalid")
	}
	if sc.life.poisoned.Load() {
		panic("kernels: lifetrace: kernel entered with a released (poisoned) workspace")
	}
}
