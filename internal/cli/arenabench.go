package cli

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"stef"
	"stef/internal/csf"
	"stef/internal/experiments"
)

// ArenaBenchRow is one tensor's arena-vs-stream open comparison: the time
// to get from a cached on-disk CSF to a solvable tree via the CSF1 stream
// (ReadFrom: decode and copy every element to the heap) against the arena
// path (OpenArena: map the file and validate O(rank) geometry), plus a
// solve-parity check that the two storage backings produce bit-identical
// factor matrices.
type ArenaBenchRow struct {
	Tensor       string  `json:"tensor"`
	NNZ          int     `json:"nnz"`
	StreamOpenMS float64 `json:"stream_open_ms"`
	ArenaOpenMS  float64 `json:"arena_open_ms"`
	OpenSpeedup  float64 `json:"open_speedup"`
	Backing      string  `json:"backing"`
	SolveParity  bool    `json:"solve_parity"`
}

// arenaBench packs each suite tensor's CSF both ways, times the two open
// paths and verifies heap/arena solve parity.
func arenaBench(s *experiments.Suite, rank, iters, reps int, out io.Writer) ([]ArenaBenchRow, error) {
	fmt.Fprintf(out, "\n== arenabench: CSF1 stream open vs arena open (R=%d, %d iters, T=%d) ==\n",
		rank, iters, s.Opts.Threads)
	fmt.Fprintf(out, "%-18s %12s %12s %12s %9s %12s %7s\n", "tensor", "nnz", "stream", "arena", "speedup", "backing", "parity")

	dir, err := os.MkdirTemp("", "stef-arenabench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	rows := make([]ArenaBenchRow, 0, len(s.Opts.Tensors))
	for _, name := range s.Opts.Tensors {
		tt, err := s.Tensor(name)
		if err != nil {
			return nil, err
		}
		tree := csf.Build(tt, nil)
		streamPath := filepath.Join(dir, name+".csf")
		arenaPath := filepath.Join(dir, name+".stef")
		if err := tree.SaveFile(streamPath); err != nil {
			return nil, err
		}
		if err := tree.WriteArena(arenaPath); err != nil {
			return nil, err
		}

		stream := minDuration(reps, func() error {
			t, err := csf.LoadFile(streamPath)
			if err == nil {
				err = t.Close()
			}
			return err
		})
		arena := minDuration(reps, func() error {
			t, err := csf.OpenArena(arenaPath)
			if err == nil {
				err = t.Close()
			}
			return err
		})
		if stream < 0 || arena < 0 {
			return nil, fmt.Errorf("arenabench: open timing failed for %s", name)
		}

		opened, err := csf.OpenArena(arenaPath)
		if err != nil {
			return nil, err
		}
		parity, err := solveParity(tree, opened, rank, iters, s.Opts.Threads)
		kind := opened.Backing().Kind()
		cerr := opened.Close()
		if err != nil {
			return nil, err
		}
		if cerr != nil {
			return nil, cerr
		}

		row := ArenaBenchRow{
			Tensor:       name,
			NNZ:          tt.NNZ(),
			StreamOpenMS: float64(stream) / float64(time.Millisecond),
			ArenaOpenMS:  float64(arena) / float64(time.Millisecond),
			Backing:      kind,
			SolveParity:  parity,
		}
		if arena > 0 {
			row.OpenSpeedup = float64(stream) / float64(arena)
		}
		rows = append(rows, row)
		fmt.Fprintf(out, "%-18s %12d %10.2fms %10.3fms %8.1fx %12s %7v\n",
			name, row.NNZ, row.StreamOpenMS, row.ArenaOpenMS, row.OpenSpeedup, row.Backing, row.SolveParity)
		if !parity {
			return rows, fmt.Errorf("arenabench: heap and arena solves diverged on %s", name)
		}
	}
	return rows, nil
}

// minDuration runs fn reps times and returns the fastest, or -1 on error.
func minDuration(reps int, fn func() error) time.Duration {
	best := time.Duration(-1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return -1
		}
		if d := time.Since(start); best < 0 || d < best {
			best = d
		}
	}
	return best
}

// solveParity runs the same seeded solve over a heap-built tree and an
// arena-backed tree of the same tensor and reports whether every factor
// matrix is bit-identical. Both solves go through CompileTree, so the plan
// decisions are shared and the only difference is where the level arrays
// live. The privatization cap is lifted so every level is privatized: a
// level past the cap takes the hybrid strategy, whose CAS adds land in an
// order that varies from run to run at T > 1.
func solveParity(heap, arena *csf.Tree, rank, iters, threads int) (bool, error) {
	opts := stef.Options{Rank: rank, Threads: threads, MaxIters: iters, Tol: -1, Seed: 1, MaxPrivElems: math.MaxInt64}
	run := func(tr *csf.Tree) (*stef.Result, error) {
		c, err := stef.CompileTree(tr, opts)
		if err != nil {
			return nil, err
		}
		return c.Decompose()
	}
	a, err := run(heap)
	if err != nil {
		return false, err
	}
	b, err := run(arena)
	if err != nil {
		return false, err
	}
	if len(a.Factors) != len(b.Factors) {
		return false, nil
	}
	for m := range a.Factors {
		fa, fb := a.Factors[m], b.Factors[m]
		if fa.Rows != fb.Rows || fa.Cols != fb.Cols {
			return false, nil
		}
		for i := 0; i < fa.Rows; i++ {
			ra, rb := fa.Row(i), fb.Row(i)
			for j := range ra {
				if ra[j] != rb[j] {
					return false, nil
				}
			}
		}
	}
	return true, nil
}
