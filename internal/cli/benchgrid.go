package cli

import (
	"stef/internal/experiments"
	"stef/internal/tensor"
)

// benchCell is one (tensor, rank, threads) point of a sweep grid — the
// cross product every kernel-level stef-bench sweep (-accumbench,
// -remapbench) enumerates before adding its own comparison axis.
type benchCell struct {
	Name    string
	Tensor  *tensor.Tensor
	Rank    int
	Threads int
}

// forEachBenchCell walks the suite's tensors × ranks × threadList grid in
// deterministic order — tensors outermost, so each is generated (and
// cached by the suite) exactly once — invoking fn per cell. The first
// error aborts the sweep.
func forEachBenchCell(s *experiments.Suite, ranks, threadList []int, fn func(c benchCell) error) error {
	for _, name := range s.Opts.Tensors {
		tt, err := s.Tensor(name)
		if err != nil {
			return err
		}
		for _, rank := range ranks {
			for _, t := range threadList {
				if err := fn(benchCell{Name: name, Tensor: tt, Rank: rank, Threads: t}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
