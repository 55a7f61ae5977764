package core

import (
	"reflect"
	"strings"
	"testing"

	"stef/internal/csf"
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

func TestParseAccumRule(t *testing.T) {
	for s, want := range map[string]AccumRule{"": AccumModel, "auto": AccumModel, "priv": AccumPriv, "hybrid": AccumHybrid, "atomic": AccumAtomic} {
		if got, err := ParseAccumRule(s); err != nil || got != want {
			t.Errorf("ParseAccumRule(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseAccumRule("bogus"); err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Errorf("ParseAccumRule(\"bogus\") error = %v, want one naming the value", err)
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
