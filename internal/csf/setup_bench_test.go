package csf_test

import (
	"fmt"
	"runtime"
	"testing"

	"stef/internal/core"
	"stef/internal/csf"
	"stef/internal/kernels"
	"stef/internal/model"
	"stef/internal/tensor"
)

// BenchmarkSetup times the set-up steps of core.NewPlan on the inputs of
// the kernel-heavy and dense-heavy benchmark workloads (bench/workloads.go)
// at their rank and two threads: csf.Build on one and on two blocks (with
// GOMAXPROCS set to match), the swapped layout derived from the base tree
// and rebuilt from the COO, the row-write census of every non-root level
// of the plan, and the whole plan.
//
//	go test -run '^$' -bench Setup ./internal/csf/
func BenchmarkSetup(b *testing.B) {
	const threads = 2
	for _, w := range []struct {
		name, profile string
		scale, rank   int
	}{
		{"kernel-heavy", "chicago-crime-geo", 4, 32},
		{"dense-heavy", "delicious-3d", 1, 32},
	} {
		p, err := tensor.ProfileByName(w.profile)
		if err != nil {
			b.Fatal(err)
		}
		p.NNZ *= w.scale
		tt := p.Generate()
		opts := core.Options{Rank: w.rank, Threads: threads}
		plan, err := core.NewPlan(tt, opts)
		if err != nil {
			b.Fatal(err)
		}
		perm := tensor.LengthSortedPerm(tt.Dims)
		base := csf.Build(tt, perm)
		for _, blocks := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/build-%d", w.name, blocks), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(blocks))
				for i := 0; i < b.N; i++ {
					csf.Build(tt, perm)
				}
			})
		}
		b.Run(w.name+"/swap-derive", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				base.SwapLastTwo(threads)
			}
		})
		b.Run(w.name+"/swap-rebuild", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				csf.Build(tt, base.SwappedPerm())
			}
		})
		b.Run(w.name+"/census", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for u := 1; u < plan.Tree.Order(); u++ {
					kernels.CountRowWrites(plan.Tree, plan.Part, u, model.SourceLevel(plan.Config.Save, u))
				}
			}
		})
		b.Run(w.name+"/plan", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.NewPlan(tt, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
