package cli

import (
	"fmt"
	"io"
	"strings"
	"time"

	"stef/internal/core"
	"stef/internal/experiments"
	"stef/internal/kernels"
	"stef/internal/model"
	"stef/internal/tensor"
)

// AccumModeRow reports one non-root mode's accumulation behaviour inside an
// AccumBenchRow: the strategy the plan resolved, the census classification
// (hot / direct / CAS / touched rows), the measured phase times (min over
// reps), and the model's predicted cost for all three strategies so the
// prediction can be checked against the measured ranking.
type AccumModeRow struct {
	Level      int    `json:"level"`
	Strategy   string `json:"strategy"`
	HotRows    int    `json:"hot_rows"`
	DirectRows int    `json:"direct_rows"`
	CASRows    int    `json:"cas_rows"`
	Touched    int    `json:"touched_rows"`
	// Reset, Kernel and Reduce are the per-call phase times (min over reps).
	Reset  time.Duration `json:"reset_ns"`
	Kernel time.Duration `json:"mttkrp_ns"`
	Reduce time.Duration `json:"reduce_ns"`
	// ModelPriv/Hybrid/Atomic are the model's element-move estimates for
	// this level under each strategy (AccumCost totals).
	ModelPriv   int64 `json:"model_cost_priv"`
	ModelHybrid int64 `json:"model_cost_hybrid"`
	ModelAtomic int64 `json:"model_cost_atomic"`
}

// AccumBenchRow is one (tensor, rank, threads, forced-strategy) cell of the
// accumulation benchmark: the full non-root MTTKRP sequence timed with the
// given strategy forced on every mode ("auto" lets the model choose
// per mode). Durations marshal as nanoseconds under -json.
type AccumBenchRow struct {
	Tensor  string `json:"tensor"`
	Rank    int    `json:"rank"`
	Threads int    `json:"threads"`
	Force   string `json:"force"`
	// PerIter is the min-over-reps time of one full non-root sequence
	// (Reset + kernel + Reduce for every non-root mode).
	PerIter time.Duration  `json:"per_iter_ns"`
	Modes   []AccumModeRow `json:"modes"`
}

// accumForces enumerates the benchmark's forcing axis: the model's choice
// first, then each strategy pinned on every mode.
var accumForces = []struct {
	name string
	rule core.AccumRule
}{
	{"auto", core.AccumModel},
	{"priv", core.AccumPriv},
	{"hybrid", core.AccumHybrid},
	{"atomic", core.AccumAtomic},
}

// accumBench times the non-root MTTKRP sequence under every accumulation
// strategy for every (tensor, rank, threads) point. It drives the kernels
// directly rather than through cpd so Reset, scatter and Reduce can be
// timed separately.
func accumBench(s *experiments.Suite, ranks, threadList []int, reps int, out io.Writer) ([]AccumBenchRow, error) {
	fmt.Fprintf(out, "\n== accumbench: output accumulation strategies (reps=%d, min taken) ==\n", reps)
	fmt.Fprintf(out, "%-18s %4s %2s %-7s %12s  %s\n", "tensor", "R", "T", "force", "per-iter", "modes")
	var rows []AccumBenchRow
	for _, name := range s.Opts.Tensors {
		tt, err := s.Tensor(name)
		if err != nil {
			return nil, err
		}
		for _, rank := range ranks {
			for _, t := range threadList {
				for _, force := range accumForces {
					row, err := accumBenchCell(tt, name, rank, t, reps, s.Opts.CacheBytes, force.name, force.rule)
					if err != nil {
						return nil, err
					}
					rows = append(rows, row)
					var modes []string
					for _, m := range row.Modes {
						modes = append(modes, fmt.Sprintf("L%d=%s(hot=%d red=%s)",
							m.Level, m.Strategy, m.HotRows, m.Reduce.Round(time.Microsecond)))
					}
					fmt.Fprintf(out, "%-18s %4d %2d %-7s %12s  %s\n", name, rank, t, force.name,
						row.PerIter.Round(time.Microsecond), strings.Join(modes, " "))
				}
			}
		}
	}
	return rows, nil
}

// accumBenchCell builds one plan with the strategy forced and times every
// non-root mode's Reset / scatter kernel / Reduce phases.
func accumBenchCell(tt *tensor.Tensor, name string, rank, threads, reps int, cacheBytes int64, forceName string, rule core.AccumRule) (AccumBenchRow, error) {
	plan, err := core.NewPlan(tt, core.Options{
		Rank: rank, Threads: threads, CacheBytes: cacheBytes, AccumRule: rule,
	})
	if err != nil {
		return AccumBenchRow{}, err
	}
	tree := plan.Tree
	d := tree.Order()
	factors := tensor.RandomFactors(tt.Dims, rank, 7)
	lf := make([]*tensor.Matrix, d)
	kernels.LevelFactorsInto(lf, factors, tree.Perm())
	partials := kernels.NewPartials(tree, rank, plan.Config.Save)
	scratch := kernels.NewScratch(d, rank, threads)
	// One root pass populates the memoized partials the non-root kernels
	// read; the root mode itself has no OutBuf and is out of scope here.
	rootOut := tensor.NewMatrix(tree.Dim(0), rank)
	kernels.RootMTTKRPWith(tree, lf, rootOut, partials, plan.Part, scratch)

	row := AccumBenchRow{Tensor: name, Rank: rank, Threads: threads, Force: forceName}
	bufs := make([]*kernels.OutBuf, d)
	outs := make([]*tensor.Matrix, d)
	for u := 1; u < d; u++ {
		ap := plan.Accum[u]
		bufs[u] = kernels.NewOutBufPlanned(ap)
		outs[u] = tensor.NewMatrix(tree.Dim(u), rank)
		row.Modes = append(row.Modes, AccumModeRow{
			Level:      u,
			Strategy:   ap.Strategy.String(),
			HotRows:    ap.HotK(),
			DirectRows: ap.DirectRows,
			CASRows:    ap.CASRows,
			Touched:    len(ap.Touched),
			Reset:      1<<62 - 1,
			Kernel:     1<<62 - 1,
			Reduce:     1<<62 - 1,
			// Model costs come from the plan's Params (stats attached for
			// the final layout), independent of the forced strategy.
			ModelPriv:   plan.Params.AccumCost(u, model.AccumPriv).Total(),
			ModelHybrid: plan.Params.AccumCost(u, model.AccumHybrid).Total(),
			ModelAtomic: plan.Params.AccumCost(u, model.AccumAtomic).Total(),
		})
	}
	row.PerIter = 1<<62 - 1
	for rep := 0; rep < reps; rep++ {
		var total time.Duration
		for u := 1; u < d; u++ {
			m := &row.Modes[u-1]
			start := time.Now()
			bufs[u].Reset()
			reset := time.Since(start)
			start = time.Now()
			kernels.ModeMTTKRPWith(tree, lf, u, partials, bufs[u], plan.Part, scratch)
			kern := time.Since(start)
			start = time.Now()
			bufs[u].Reduce(outs[u])
			reduce := time.Since(start)
			if reset < m.Reset {
				m.Reset = reset
			}
			if kern < m.Kernel {
				m.Kernel = kern
			}
			if reduce < m.Reduce {
				m.Reduce = reduce
			}
			total += reset + kern + reduce
		}
		if total < row.PerIter {
			row.PerIter = total
		}
	}
	return row, nil
}
