// Modelexplorer: sweep STeF's data-movement model over every configuration
// (memoization subset × last-two-mode layout) for a tensor, then measure
// each configuration's actual MTTKRP time and report predicted-vs-measured
// ranking — a direct check of Section IV's model quality on this host.
//
//	go run ./examples/modelexplorer [tensor-name]
package main

import (
	"fmt"
	"log"
	"os"
	"sort"

	"stef"
	"stef/internal/core"
	"stef/internal/experiments"
	"stef/internal/stats"
)

func main() {
	name := "uber"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	t, err := stef.Benchmark(name)
	if err != nil {
		log.Fatal(err)
	}
	const (
		rank    = 32
		threads = 4
	)
	fmt.Printf("exploring configurations for %s: %v\n", name, t)

	plan, err := core.NewPlan(t, core.Options{Rank: rank, Threads: threads})
	if err != nil {
		log.Fatal(err)
	}

	type entry struct {
		swap     bool
		save     []bool
		cost     int64
		measured float64 // seconds
	}
	var entries []entry
	for _, cfg := range plan.AllConfigs {
		// Force this exact configuration through the ablation rules.
		opts := core.Options{Rank: rank, Threads: threads}
		if cfg.Swap {
			opts.SwapRule = core.SwapAlways
		} else {
			opts.SwapRule = core.SwapNever
		}
		opts.SaveRule = core.SaveNone
		variant, err := core.NewPlan(t, opts)
		if err != nil {
			log.Fatal(err)
		}
		eng := core.NewEngine(variant.WithSave(cfg.Save))
		el := experiments.TimeIteration(eng, t.Dims, rank, 3)
		entries = append(entries, entry{cfg.Swap, cfg.Save, cfg.Cost.Total(), el.Seconds()})
	}

	sort.Slice(entries, func(a, b int) bool { return entries[a].cost < entries[b].cost })
	tab := stats.NewTable("rank-by-model", "swap", "save", "modeled-cost", "measured-ms")
	for i, e := range entries {
		tab.AddRow(i+1, fmt.Sprint(e.swap), fmt.Sprint(e.save), e.cost, fmt.Sprintf("%.2f", e.measured*1000))
	}
	tab.Render(os.Stdout)

	bestMeasured := 0
	for i, e := range entries {
		if e.measured < entries[bestMeasured].measured {
			bestMeasured = i
		}
	}
	fmt.Printf("\nmodel's pick is ranked #1; fastest measured configuration is model rank #%d\n", bestMeasured+1)
	fmt.Printf("model-chosen config runs within %.1f%% of the fastest\n",
		100*entries[0].measured/entries[bestMeasured].measured-100)
}
