package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"

	"stef/internal/experiments"
)

// benchReport is the machine-readable shape of one stef-bench run, emitted
// by -json: run parameters plus one field per executed step that produces
// rows. Steps that only render prose (table1, workdist, scaling) have no
// JSON form.
type benchReport struct {
	Ranks        []int                          `json:"ranks"`
	Threads      int                            `json:"threads"`
	Reps         int                            `json:"reps"`
	Scale        float64                        `json:"scale"`
	Tensors      []string                       `json:"tensors"`
	Fig3Measured []experiments.SpeedupRow       `json:"fig3_measured,omitempty"`
	Fig3Modeled  []experiments.SpeedupRow       `json:"fig3_modeled,omitempty"`
	Fig4Modeled  []experiments.SpeedupRow       `json:"fig4_modeled,omitempty"`
	Fig5         []experiments.Fig5Row          `json:"fig5,omitempty"`
	Table2       []experiments.Table2Row        `json:"table2,omitempty"`
	Fig6         []fig6Group                    `json:"fig6,omitempty"`
	ModelCheck   []experiments.ModelAccuracyRow `json:"modelcheck,omitempty"`
	CPDCheck     []experiments.CPDCheckRow      `json:"cpdcheck,omitempty"`
	SolveBench   []SolveBenchRow                `json:"solvebench,omitempty"`
	ArenaBench   []ArenaBenchRow                `json:"arenabench,omitempty"`
}

type fig6Group struct {
	Rank int                   `json:"rank"`
	Rows []experiments.Fig6Row `json:"rows"`
}

// RunBench implements cmd/stef-bench: regenerate the paper's evaluation
// tables and figures.
func RunBench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stef-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		all     = fs.Bool("all", false, "run every experiment")
		table1  = fs.Bool("table1", false, "Table I: benchmark tensor inventory")
		table2  = fs.Bool("table2", false, "Table II: memoization storage")
		fig3    = fs.Bool("fig3", false, "Fig 3: speedups (measured on host + modeled at T=18)")
		fig4    = fs.Bool("fig4", false, "Fig 4: speedups (modeled at T=64)")
		fig5    = fs.Bool("fig5", false, "Fig 5: preprocessing overhead")
		fig6    = fs.Bool("fig6", false, "Fig 6: ablation study")
		wd      = fs.Bool("workdist", false, "work-distribution imbalance report")
		mcheck  = fs.Bool("modelcheck", false, "model validation: predicted vs measured over all configurations")
		ccheck  = fs.Bool("cpdcheck", false, "end-to-end CPD fit parity across engines")
		scaling = fs.Bool("scaling", false, "modeled strong-scaling study (extension)")
		sbench  = fs.Bool("solvebench", false, "compile-once/solve-many vs per-call planning throughput")
		arbench = fs.Bool("arenabench", false, "arena vs CSF1-stream open latency + heap/mmap solve parity")
		jsonOut = fs.Bool("json", false, "emit machine-readable JSON results on stdout (tables go to stderr)")
		ranks   = fs.String("ranks", "32,64", "comma-separated ranks")
		tensors = fs.String("tensors", "", "comma-separated tensor names (default: all)")
		engines = fs.String("engines", "", "comma-separated engine names (default: all)")
		threads = fs.Int("threads", runtime.GOMAXPROCS(0), "host worker threads for measured runs")
		reps    = fs.Int("reps", 2, "timing repetitions (min taken)")
		scale   = fs.Float64("scale", 1.0, "non-zero count scale factor")
		solves  = fs.Int("solves", 6, "with -solvebench: ALS restarts timed per path")
		iters   = fs.Int("iters", 10, "with -solvebench: ALS iterations per solve")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !(*all || *table1 || *table2 || *fig3 || *fig4 || *fig5 || *fig6 || *wd || *mcheck || *ccheck || *scaling || *sbench || *arbench) {
		fs.Usage()
		return 2
	}

	rankList, err := parseIntList(*ranks)
	if err != nil {
		return usage(stderr, "stef-bench", fmt.Errorf("-ranks: %w", err))
	}
	opts := experiments.Options{
		Ranks:   rankList,
		Threads: *threads,
		Reps:    *reps,
		Scale:   *scale,
		Out:     stdout,
	}
	if *jsonOut {
		// Keep stdout pure JSON; the human-readable tables move to stderr.
		opts.Out = stderr
	}
	if *tensors != "" {
		opts.Tensors = strings.Split(*tensors, ",")
	}
	if *engines != "" {
		opts.Engines = strings.Split(*engines, ",")
	}
	s := experiments.NewSuite(opts)
	report := &benchReport{
		Ranks:   rankList,
		Threads: s.Opts.Threads,
		Reps:    s.Opts.Reps,
		Scale:   s.Opts.Scale,
		Tensors: s.Opts.Tensors,
	}

	type step struct {
		enabled bool
		name    string
		run     func() error
	}
	steps := []step{
		{*all || *table1, "table1", s.Table1},
		{*all || *wd, "workdist", s.WorkDistReport},
		{*all || *fig3, "fig3-measured", func() error {
			r, err := s.Fig34("fig3 measured on host")
			report.Fig3Measured = r
			return err
		}},
		{*all || *fig3, "fig3-modeled", func() error {
			r, err := s.Fig34Modeled("fig3 Intel-18", 18)
			report.Fig3Modeled = r
			return err
		}},
		{*all || *fig4, "fig4-modeled", func() error {
			r, err := s.Fig34Modeled("fig4 AMD-64", 64)
			report.Fig4Modeled = r
			return err
		}},
		{*all || *fig5, "fig5", func() error {
			r, err := s.Fig5()
			report.Fig5 = r
			return err
		}},
		{*all || *table2, "table2", func() error {
			r, err := s.Table2()
			report.Table2 = r
			return err
		}},
	}
	if *all || *fig6 {
		for _, r := range rankList {
			r := r
			steps = append(steps, step{true, "fig6", func() error {
				rows, err := s.Fig6(r)
				if err == nil {
					report.Fig6 = append(report.Fig6, fig6Group{Rank: r, Rows: rows})
				}
				return err
			}})
		}
	}
	if *all || *mcheck {
		steps = append(steps, step{true, "modelcheck", func() error {
			r, err := s.ModelAccuracy(rankList[0])
			report.ModelCheck = r
			return err
		}})
	}
	if *ccheck {
		steps = append(steps, step{true, "cpdcheck", func() error {
			r, err := s.CPDCheck(rankList[0], 5)
			report.CPDCheck = r
			return err
		}})
	}
	if *scaling {
		steps = append(steps, step{true, "scaling", func() error {
			var engs []string
			if *engines != "" {
				engs = strings.Split(*engines, ",")
			}
			return s.ThreadScaling(engs, nil, rankList[0])
		}})
	}
	if *sbench {
		steps = append(steps, step{true, "solvebench", func() error {
			r, err := solveBench(s, rankList[0], *iters, *solves, s.Opts.Out)
			report.SolveBench = r
			return err
		}})
	}
	if *arbench {
		steps = append(steps, step{true, "arenabench", func() error {
			r, err := arenaBench(s, rankList[0], *iters, s.Opts.Reps, s.Opts.Out)
			report.ArenaBench = r
			return err
		}})
	}
	for _, st := range steps {
		if !st.enabled {
			continue
		}
		if err := st.run(); err != nil {
			return fail(stderr, "stef-bench("+st.name+")", err)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return fail(stderr, "stef-bench(json)", err)
		}
	}
	return 0
}

func parseIntList(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", p)
		}
		if v < 1 {
			return nil, fmt.Errorf("%d is below 1", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty integer list")
	}
	return out, nil
}
