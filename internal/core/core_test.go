package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"stef/internal/cpu"
	"stef/internal/csf"
	"stef/internal/kernels"
	"stef/internal/model"
	"stef/internal/tensor"
)

func TestPlanBasics(t *testing.T) {
	tt := tensor.Random([]int{8, 30, 50}, 600, nil, 1)
	plan, err := NewPlan(tt, Options{Rank: 8, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Tree == nil || plan.Part == nil {
		t.Fatal("plan missing tree or partition")
	}
	if plan.Tree2 != nil {
		t.Fatal("unexpected second CSF")
	}
	if len(plan.AllConfigs) != 2*2 { // d=3: 2 save subsets × 2 layouts
		t.Fatalf("%d configs, want 4", len(plan.AllConfigs))
	}
	for _, c := range plan.AllConfigs {
		if c.Cost.Total() < plan.Config.Cost.Total() && c.Swap == plan.Config.Swap {
			// Only comparable when the layout matches a forced rule;
			// with SwapModel the global best must win outright.
			t.Errorf("config %+v beats chosen %+v", c, plan.Config)
		}
	}
	if plan.CSFBytes <= 0 || plan.FactorBytes <= 0 {
		t.Fatal("byte accounting missing")
	}
}

func TestPlanRejectsLowOrder(t *testing.T) {
	tt := tensor.Random([]int{5, 5}, 10, nil, 1)
	if _, err := NewPlan(tt, Options{Rank: 4}); err == nil {
		t.Fatal("expected error for order-2 tensor")
	}
}

func TestPlanSaveRules(t *testing.T) {
	tt := tensor.Random([]int{6, 20, 30, 10}, 800, nil, 2)
	all, err := NewPlan(tt, Options{Rank: 4, SaveRule: SaveAll})
	if err != nil {
		t.Fatal(err)
	}
	for l := 1; l <= 2; l++ {
		if !all.Config.Save[l] {
			t.Errorf("SaveAll did not save level %d", l)
		}
	}
	if all.MemoBytes == 0 {
		t.Error("SaveAll reports zero memo bytes")
	}
	none, err := NewPlan(tt, Options{Rank: 4, SaveRule: SaveNone})
	if err != nil {
		t.Fatal(err)
	}
	for l := range none.Config.Save {
		if none.Config.Save[l] {
			t.Errorf("SaveNone saved level %d", l)
		}
	}
	if none.MemoBytes != 0 {
		t.Errorf("SaveNone memo bytes %d", none.MemoBytes)
	}
	if none.Ratio() != 0 {
		t.Errorf("SaveNone ratio %g", none.Ratio())
	}
}

func TestPlanSwapRules(t *testing.T) {
	tt := tensor.Random([]int{6, 20, 30}, 700, nil, 3)
	always, err := NewPlan(tt, Options{Rank: 4, SwapRule: SwapAlways})
	if err != nil {
		t.Fatal(err)
	}
	never, err := NewPlan(tt, Options{Rank: 4, SwapRule: SwapNever})
	if err != nil {
		t.Fatal(err)
	}
	basePerm := tensor.LengthSortedPerm(tt.Dims)
	if never.Tree.PermLevel(2) != basePerm[2] || never.Tree.PermLevel(1) != basePerm[1] {
		t.Errorf("SwapNever perm %v, want %v", never.Tree.Perm(), basePerm)
	}
	if always.Tree.PermLevel(1) != basePerm[2] || always.Tree.PermLevel(2) != basePerm[1] {
		t.Errorf("SwapAlways perm %v does not swap %v", always.Tree.Perm(), basePerm)
	}
	modelPlan, err := NewPlan(tt, Options{Rank: 4})
	if err != nil {
		t.Fatal(err)
	}
	opp, err := NewPlan(tt, Options{Rank: 4, SwapRule: SwapOpposite})
	if err != nil {
		t.Fatal(err)
	}
	if opp.Config.Swap == modelPlan.Config.Swap {
		t.Errorf("SwapOpposite chose the model layout")
	}
}

func TestPlanSecondCSF(t *testing.T) {
	tt := tensor.Random([]int{6, 20, 30, 8}, 500, nil, 4)
	plan, err := NewPlan(tt, Options{Rank: 4, SecondCSF: true, Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Tree2 == nil || plan.Part2 == nil {
		t.Fatal("SecondCSF not built")
	}
	// Tree2's root must be Tree's leaf mode.
	if plan.Tree2.PermLevel(0) != plan.Tree.PermLevel(3) {
		t.Errorf("tree2 root mode %d, want %d", plan.Tree2.PermLevel(0), plan.Tree.PermLevel(3))
	}
	if plan.CSFBytes <= plan.Tree.Bytes() {
		t.Error("CSF bytes do not include the second tree")
	}
}

func TestPlanPreprocessTimeRecorded(t *testing.T) {
	tt := tensor.Random([]int{10, 40, 60}, 2000, nil, 5)
	plan, err := NewPlan(tt, Options{Rank: 8, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if plan.PreprocessTime <= 0 {
		t.Error("preprocess time not recorded")
	}
	if plan.BuildTime <= 0 {
		t.Error("build time not recorded")
	}
}

func TestPlanChosenConfigIsBestForLayout(t *testing.T) {
	// Under the model rule with free layout, the chosen config must be
	// the global minimum of all evaluated configs.
	tt := tensor.Random([]int{5, 25, 80, 7}, 900, []float64{1.3, 0, 1.5, 0}, 6)
	plan, err := NewPlan(tt, Options{Rank: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range plan.AllConfigs {
		if c.Cost.Total() < plan.Config.Cost.Total() {
			t.Errorf("config %+v cheaper than chosen %+v", c, plan.Config)
		}
	}
}

func TestSliceSchedOption(t *testing.T) {
	tt := tensor.Random([]int{4, 30, 40}, 500, []float64{2, 0, 0}, 7)
	plan, err := NewPlan(tt, Options{Rank: 4, Threads: 4, SliceSched: true})
	if err != nil {
		t.Fatal(err)
	}
	// Slice partitions are aligned: no shared starts anywhere.
	for th := 1; th < 4; th++ {
		for l := 0; l < plan.Tree.Order(); l++ {
			if plan.Part.SharedStart(th, l) {
				t.Fatalf("slice partition has shared start at th=%d l=%d", th, l)
			}
		}
	}
	eng := NewEngine(plan)
	if eng.Name() != "stef-slicesched" {
		t.Errorf("engine name %q", eng.Name())
	}
}

func TestDescribe(t *testing.T) {
	tt := tensor.Random([]int{6, 40, 50, 7}, 900, nil, 8)
	plan, err := NewPlan(tt, Options{Rank: 8, Threads: 2, SecondCSF: true})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	plan.Describe(&sb)
	out := sb.String()
	for _, want := range []string{"STeF plan", "memoized levels", "work distribution", "STeF2 auxiliary", "preprocessing"} {
		if !strings.Contains(out, want) {
			t.Errorf("Describe missing %q:\n%s", want, out)
		}
	}
	if _, ok := plan.runnerUp(); !ok {
		t.Error("no runner-up configuration found")
	}
}

// TestDescribeAccumulationBytes pins the storage line's accumulation
// figure, what one workspace allocates for the non-root outputs: (T−1)
// replicas of rows·R·8 bytes per priv level at T = 1, 2 and 3 (thread 0
// accumulates in the output), and the shared region plus T hot slabs per
// level of a plan whose one-element cap makes every level hybrid.
func TestDescribeAccumulationBytes(t *testing.T) {
	const rank = 8
	tt := tensor.Random([]int{60, 700, 900}, 3000, []float64{0, 1.3, 1.3}, 4)
	for _, tc := range []struct {
		threads int
		maxPriv int64
	}{{1, 0}, {2, 0}, {3, 0}, {2, 1}} {
		plan, err := NewPlan(tt, Options{Rank: rank, Threads: tc.threads, MaxPrivElems: tc.maxPriv})
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		for u := 1; u < tt.Order(); u++ {
			ap := plan.Accum[u]
			rowBytes := int64(rank * 8)
			switch {
			case tc.maxPriv == 0 && ap.Strategy == kernels.AccumPriv:
				want += int64(tc.threads-1) * int64(plan.Tree.Dim(u)) * rowBytes
			case tc.maxPriv == 1 && ap.Strategy == kernels.AccumHybrid:
				want += int64(plan.Tree.Dim(u))*rowBytes + int64(tc.threads*ap.HotK())*rowBytes
			default:
				t.Fatalf("T %d cap %d: level %d planned %v", tc.threads, tc.maxPriv, u, ap)
			}
		}
		if got := plan.AccumBytes(); got != want {
			t.Errorf("T %d cap %d: AccumBytes %d, want %d", tc.threads, tc.maxPriv, got, want)
		}
		var sb strings.Builder
		plan.Describe(&sb)
		if line := fmt.Sprintf("accumulation %.2f MB\n", float64(want)/(1<<20)); !strings.Contains(sb.String(), line) {
			t.Errorf("T %d cap %d: Describe lacks %q:\n%s", tc.threads, tc.maxPriv, line, sb.String())
		}
	}
}

// TestDescribeKernelLine pins Describe's kernel line: two-level fiber runs
// from order 4, where a root walk with a memo at level d-3 or d-2 stays
// one-level, and one-level runs at order 3; and the primitive set this
// build runs,
// with the reason when it is the Go forms. The expected set follows the
// CPU probe and the race flag, so the test holds in race and non-race
// builds alike.
func TestDescribeKernelLine(t *testing.T) {
	set := "Go forms (no AVX2)"
	switch {
	case cpu.AVX2 && cpu.RaceBuild:
		set = "Go forms (race build)"
	case cpu.AVX2:
		set = "AVX2 fiber primitives"
	}
	for _, tc := range []struct {
		dims []int
		rule SaveRule
		save []bool // the memo set the case relies on the planner choosing
		line string
	}{
		{[]int{6, 40, 50}, SaveModel, nil, "one-level fiber runs"},
		{[]int{6, 40, 50, 7}, SaveModel, []bool{false, true, false, false}, "two-level fiber runs, one-level in the root walk (memo at level 1)"},
		{[]int{6, 40, 50, 7}, SaveNone, []bool{false, false, false, false}, "two-level fiber runs"},
		{[]int{5, 6, 7, 8, 9}, SaveModel, []bool{false, true, true, false, false}, "two-level fiber runs, one-level in the root walk (memo at level 2)"},
		{[]int{5, 6, 7, 8, 9}, SaveAll, []bool{false, true, true, true, false}, "two-level fiber runs, one-level in the root walk (memos at levels 2 and 3)"},
		{[]int{3, 4, 5, 6, 7, 8}, SaveModel, nil, "two-level fiber runs"},
	} {
		tt := tensor.Random(tc.dims, 400, nil, 8)
		plan, err := NewPlan(tt, Options{Rank: 4, Threads: 1, SaveRule: tc.rule})
		if err != nil {
			t.Fatal(err)
		}
		if tc.save != nil && !saveEqual(plan.Config.Save, tc.save) {
			t.Fatalf("order %d rule %v: planned memo set %v, want %v", len(tc.dims), tc.rule, plan.Config.Save, tc.save)
		}
		var sb strings.Builder
		plan.Describe(&sb)
		if want := "\n  kernels: " + tc.line + ", " + set + "\n"; !strings.Contains(sb.String(), want) {
			t.Errorf("order %d rule %v: Describe lacks %q:\n%s", len(tc.dims), tc.rule, want, sb.String())
		}
	}
}

func TestLeafRootedPerm(t *testing.T) {
	got := leafRootedPerm([]int{2, 0, 3, 1})
	want := []int{1, 2, 0, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("leafRootedPerm = %v, want %v", got, want)
		}
	}
}

func TestBestSaveForMatchesExhaustive(t *testing.T) {
	params := model.ParamsForCache([]int{10, 200, 3000, 4000}, []int64{10, 1500, 40000, 90000}, 32, 1<<18)
	best := bestSaveFor(params)
	bestCost := params.IterationCost(best).Total()
	for _, save := range model.EnumerateSaves(4) {
		if c := params.IterationCost(save).Total(); c < bestCost {
			t.Fatalf("save %v (cost %d) beats bestSaveFor %v (cost %d)", save, c, best, bestCost)
		}
	}
}

// TestPlanSameThroughComparatorSort builds the CSF and the plan of every
// profile, at a tenth of its non-zeros, once with the radix sort and once
// with the comparator sort it replaced: the trees, the configuration, the
// accumulation plans and the model parameters must be identical.
func TestPlanSameThroughComparatorSort(t *testing.T) {
	defer func(old bool) { tensor.RadixSort = old }(tensor.RadixSort)
	for _, p := range tensor.Profiles() {
		p.NNZ /= 10
		tt := p.Generate()
		build := func(radix bool) (*csf.Tree, *Plan) {
			tensor.RadixSort = radix
			plan, err := NewPlan(tt, Options{Rank: 16, Threads: 2})
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			return csf.Build(tt, nil), plan
		}
		tree, plan := build(true)
		wantTree, want := build(false)
		if !csf.Equal(tree, wantTree) || !csf.Equal(plan.Tree, want.Tree) {
			t.Errorf("%s: the radix-sorted CSF differs from the comparator-sorted one", p.Name)
		}
		if !reflect.DeepEqual(plan.Config, want.Config) || !reflect.DeepEqual(plan.Accum, want.Accum) || !reflect.DeepEqual(plan.Params, want.Params) {
			t.Errorf("%s: the plan differs from the one built through the comparator sort", p.Name)
		}
	}
}

// TestSwappedPlanTreeMatchesBuild plans every profile, at a twentieth of its
// non-zeros, under the two swap rules that force the swapped layout in
// some plan, at 1, 2, 3 and 8 threads: every swapped plan's tree, derived
// from the base tree, must equal the tree built from the COO in its order.
func TestSwappedPlanTreeMatchesBuild(t *testing.T) {
	swapped := 0
	for _, p := range tensor.Profiles() {
		p.NNZ /= 20
		tt := p.Generate()
		for _, rule := range []SwapRule{SwapAlways, SwapOpposite} {
			for _, threads := range []int{1, 2, 3, 8} {
				plan, err := NewPlan(tt, Options{Rank: 16, Threads: threads, SwapRule: rule})
				if err != nil {
					t.Fatalf("%s: %v", p.Name, err)
				}
				if !plan.Config.Swap {
					continue
				}
				swapped++
				if !csf.Equal(plan.Tree, csf.Build(tt, plan.Tree.Perm())) {
					t.Errorf("%s rule %d T=%d: the derived swapped tree differs from the build", p.Name, rule, threads)
				}
			}
		}
	}
	if swapped < 16*4 {
		t.Errorf("only %d swapped plans, want at least one per profile and thread count", swapped)
	}
}
