package kernels

import (
	"fmt"

	"stef/internal/tensor"
)

// Scratch holds the per-thread temporary state of the MTTKRP kernels: the
// per-level rank-vector accumulators and the boundary replica rows of the
// no-atomics merge scheme. One Scratch serves every kernel of one engine
// (root and non-root, both CSF trees): the slot layout is indexed by CSF
// level, and boundary rows are dead after each root call returns. A Scratch
// belongs to exactly one in-flight MTTKRP at a time; workspaces pool them
// so steady-state solves allocate nothing.
type Scratch struct {
	threads int
	rank    int
	stride  int // padded rank, keeps threads off shared cache lines
	slots   int // accumulator slots per thread, one per CSF level 0..d-2
	vecs    []float64
	// walk[th*slots+l] is level l of thread th's treeView (walk.go),
	// filled at the start of each launch, so no launch allocates it.
	walk []walkLevel
	// bound[l] holds one boundary replica row per thread for level l
	// (level 0 stands in for the root output). Kernels must zero the rows
	// they merge before writing: pooled reuse leaves stale data behind.
	bound []*tensor.Matrix
	// ops is the rank-vector primitive set chosen by opsFor (vec.go).
	// The walks call the primitives through it; the subtree kernels
	// rebind the names from here at the top of each thread body.
	ops vecOps
	// shadow is the write-disjointness oracle; a no-op unless built with
	// -tags shadowtrace (see shadow_off.go / shadow_on.go).
	shadow shadowState
	// life is the workspace-lifetime oracle; a no-op unless built with
	// -tags lifetrace (see life_off.go / life_on.go).
	life lifeScratchState
}

// NewScratch sizes a scratch for order-d trees at the given rank and thread
// count.
func NewScratch(d, rank, threads int) *Scratch {
	if d < 2 || rank <= 0 || threads <= 0 {
		panic(fmt.Sprintf("kernels: NewScratch(d=%d, rank=%d, threads=%d)", d, rank, threads))
	}
	s := &Scratch{
		threads: threads,
		rank:    rank,
		stride:  (rank + 7) &^ 7,
		slots:   d - 1,
		bound:   make([]*tensor.Matrix, d-1),
		ops:     opsFor(),
	}
	s.vecs = make([]float64, threads*s.slots*s.stride)
	s.walk = make([]walkLevel, threads*s.slots)
	for l := range s.bound {
		s.bound[l] = tensor.NewMatrix(threads, rank)
	}
	return s
}

// vec returns thread th's accumulator for the given slot (CSF level), with
// capacity clamped to rank so appends can never bleed into a neighbour.
func (s *Scratch) vec(th, slot int) []float64 {
	base := (th*s.slots + slot) * s.stride
	return s.vecs[base : base+s.rank : base+s.rank]
}

// check panics unless the scratch fits an order-d kernel launch at the
// given rank and partition width.
func (s *Scratch) check(d, rank, threads int) {
	if s.rank != rank || s.threads < threads || s.slots < d-1 {
		panic(fmt.Sprintf("kernels: scratch sized for rank=%d threads=%d slots=%d, kernel needs rank=%d threads=%d order=%d",
			s.rank, s.threads, s.slots, rank, threads, d))
	}
}
