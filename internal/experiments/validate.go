package experiments

import (
	"fmt"

	"stef/internal/core"
	"stef/internal/stats"
)

// ModelAccuracyRow summarises how well the Section IV data-movement model
// predicted real configuration performance on one tensor.
type ModelAccuracyRow struct {
	Tensor string
	Rank   int
	// Tau is the Kendall rank correlation between modeled cost and
	// measured time over all configurations (1 = perfect ranking).
	Tau float64
	// RegretPct is how much slower the model's pick is than the fastest
	// measured configuration (0 = model picked the fastest).
	RegretPct float64
	// Configs is the number of configurations evaluated.
	Configs int
}

// ModelAccuracy measures every configuration of every tensor and compares
// the model's predicted ordering with reality. This validation experiment
// goes beyond the paper's ablation (which only compares the model's choice
// with the extremes): it quantifies the full ranking quality and the
// regret of the model's pick on this host.
func (s *Suite) ModelAccuracy(rank int) ([]ModelAccuracyRow, error) {
	w := s.Opts.Out
	fmt.Fprintf(w, "\n== Model validation: predicted vs measured over all configurations, R=%d ==\n", rank)
	tab := stats.NewTable("tensor", "configs", "kendall-tau", "regret%")
	var rows []ModelAccuracyRow
	var taus, regrets []float64
	for _, name := range s.Opts.Tensors {
		tt, err := s.Tensor(name)
		if err != nil {
			return nil, err
		}
		plan, err := core.NewPlan(tt, core.Options{Rank: rank, Threads: s.Opts.Threads, CacheBytes: s.Opts.CacheBytes})
		if err != nil {
			return nil, err
		}
		var predicted, measured []float64
		bestMeasured := -1.0
		pickMeasured := -1.0
		for _, cfg := range plan.AllConfigs {
			opts := core.Options{Rank: rank, Threads: s.Opts.Threads, CacheBytes: s.Opts.CacheBytes}
			if cfg.Swap {
				opts.SwapRule = core.SwapAlways
			} else {
				opts.SwapRule = core.SwapNever
			}
			variant, err := core.NewPlan(tt, opts)
			if err != nil {
				return nil, err
			}
			eng := core.NewEngine(variant.WithSave(cfg.Save))
			el := TimeIteration(eng, tt.Dims, rank, s.Opts.Reps).Seconds()
			predicted = append(predicted, float64(cfg.Cost.Total()))
			measured = append(measured, el)
			if bestMeasured < 0 || el < bestMeasured {
				bestMeasured = el
			}
			if cfg.Swap == plan.Config.Swap && saveEq(cfg.Save, plan.Config.Save) {
				pickMeasured = el
			}
		}
		tau := stats.KendallTau(predicted, measured)
		regret := 0.0
		if pickMeasured > 0 && bestMeasured > 0 {
			regret = 100 * (pickMeasured/bestMeasured - 1)
		}
		rows = append(rows, ModelAccuracyRow{name, rank, tau, regret, len(predicted)})
		taus = append(taus, tau)
		regrets = append(regrets, regret)
		tab.AddRow(name, len(predicted), fmt.Sprintf("%.2f", tau), fmt.Sprintf("%.1f", regret))
	}
	tab.AddRow("average", "", fmt.Sprintf("%.2f", stats.Mean(taus)), fmt.Sprintf("%.1f", stats.Mean(regrets)))
	tab.Render(w)
	return rows, nil
}

func saveEq(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
