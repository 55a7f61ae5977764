package core

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"stef/internal/cpu"
	"stef/internal/csf"
	"stef/internal/tensor"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/plans.golden from the current planner")

const goldenFile = "testdata/plans.golden"

// goldenInput is one input of the plan golden test. fromTree marks the
// four benchmark workload shapes, whose base tree is planned through
// NewPlanFromTree as well, as an opened arena is.
type goldenInput struct {
	name     string
	nnzScale int
	fromTree bool
}

// goldenInputs returns the 16 profiles plus kernel-heavy's input,
// chicago-crime-geo at four times its non-zeros.
func goldenInputs() []goldenInput {
	shapes := map[string]bool{"delicious-3d": true, "uber": true, "vast-2015-mc1-3d": true}
	var in []goldenInput
	for _, p := range tensor.Profiles() {
		in = append(in, goldenInput{name: p.Name, nnzScale: 1, fromTree: shapes[p.Name]})
	}
	return append(in, goldenInput{name: "chicago-crime-geo", nnzScale: 4, fromTree: true})
}

// planLine renders the decisions of one plan: the swap, the memo set and
// each non-root level's accumulation plan.
func planLine(p *Plan) string {
	var memo []string
	for l, s := range p.Config.Save {
		if s {
			memo = append(memo, fmt.Sprint(l))
		}
	}
	if memo == nil {
		memo = []string{"none"}
	}
	line := fmt.Sprintf("swap=%v memo=%s", p.Config.Swap, strings.Join(memo, ","))
	for u, ap := range p.Accum {
		if ap != nil {
			line += fmt.Sprintf(" L%d=%v", u, ap)
		}
	}
	return line
}

// TestPlanGolden pins every plan decision — swap, memo set and each
// level's accumulation plan — of NewPlan on the 16 profiles and
// kernel-heavy's input, and of NewPlanFromTree on the base trees of the
// four benchmark workload shapes, at R ∈ {16, 20, 32, 64} and
// T ∈ {1, 2, 4}. A change to the planner that moves any plan shows here
// line by line. Regenerate testdata/plans.golden with
//
//	go test -run TestPlanGolden ./internal/core/ -update
//
// and name every changed line in the change's record.
func TestPlanGolden(t *testing.T) {
	if cpu.RaceBuild {
		t.Skip("the plan sweep takes minutes under the race detector; the plans do not depend on it")
	}
	var got []string
	for _, in := range goldenInputs() {
		p, err := tensor.ProfileByName(in.name)
		if err != nil {
			t.Fatal(err)
		}
		p.NNZ *= in.nnzScale
		tt := p.Generate()
		label := fmt.Sprintf("%s x%d", in.name, in.nnzScale)
		var base *csf.Tree
		if in.fromTree {
			base = csf.Build(tt, nil)
		}
		for _, r := range []int{16, 20, 32, 64} {
			for _, th := range []int{1, 2, 4} {
				opts := Options{Rank: r, Threads: th}
				plan, err := NewPlan(tt, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				got = append(got, fmt.Sprintf("%s R%d T%d tensor: %s", label, r, th, planLine(plan)))
				if base == nil {
					continue
				}
				plan, err = NewPlanFromTree(base, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				got = append(got, fmt.Sprintf("%s R%d T%d tree: %s", label, r, th, planLine(plan)))
			}
		}
	}
	if *updateGolden {
		if err := os.WriteFile(goldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%d plans, the golden file holds %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("plan changed:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
