package core

import (
	"fmt"
	"io"

	"stef/internal/kernels"
	"stef/internal/model"
)

// Describe writes a human-readable summary of every decision in the plan:
// the chosen layout and memoization set with their modeled cost, the
// runner-up configurations, the work-distribution mode, the kernel walk,
// its fiber-run depth and primitive set, the Table II byte accounting and
// what one workspace allocates to accumulate the non-root outputs.
// tensorinfo and the examples use it; it is also handy in bug reports.
func (p *Plan) Describe(w io.Writer) {
	tree := p.Tree
	d := tree.Order()
	fmt.Fprintf(w, "STeF plan (R=%d, T=%d, cache=%d bytes)\n", p.Opts.Rank, p.Opts.Threads, p.Opts.CacheBytes)
	fmt.Fprintf(w, "  CSF level order (original modes): %v%s\n", tree.Perm(), map[bool]string{true: "  [last two modes swapped]", false: ""}[p.Config.Swap])
	fmt.Fprintf(w, "  memoized levels: ")
	any := false
	for l := 1; l <= d-2; l++ {
		if p.Config.Save[l] {
			if any {
				fmt.Fprint(w, ", ")
			}
			fmt.Fprintf(w, "P^(%d) [%d fibers]", l, tree.NumFibers(l))
			any = true
		}
	}
	if !any {
		fmt.Fprint(w, "none")
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  modeled cost: %v (best of %d configurations)\n", p.Config.Cost, len(p.AllConfigs))
	if runnerUp, ok := p.runnerUp(); ok {
		fmt.Fprintf(w, "  runner-up: swap=%v save=%v cost=%v\n", runnerUp.Swap, runnerUp.Save, runnerUp.Cost)
	}
	sched := "nnz-balanced (Alg. 3)"
	if p.Opts.SliceSched {
		sched = "slice-granular (baseline)"
	}
	fmt.Fprintf(w, "  work distribution: %s\n", sched)
	runs, prims := kernels.KernelPath(d, p.Config.Save)
	fmt.Fprintf(w, "  kernels: %s, %s\n", runs, prims)
	if len(p.Accum) > 0 {
		fmt.Fprintf(w, "  output accumulation:")
		for u := 1; u < d; u++ {
			if u >= len(p.Accum) || p.Accum[u] == nil {
				continue
			}
			fmt.Fprintf(w, " L%d=%v", u, p.Accum[u])
		}
		fmt.Fprintln(w)
	}
	if p.Tree2 != nil {
		fmt.Fprintf(w, "  STeF2 auxiliary CSF rooted at original mode %d\n", p.Tree2.PermLevel(0))
	}
	fmt.Fprintf(w, "  storage: memo %.2f MB, CSF %.2f MB, factors %.2f MB (ratio %.2f), accumulation %.2f MB\n",
		mb(p.MemoBytes), mb(p.CSFBytes), mb(p.FactorBytes), p.Ratio(), mb(p.AccumBytes()))
	fmt.Fprintf(w, "  preprocessing: %v (Alg. 9 + census + model search), build: %v\n", p.PreprocessTime, p.BuildTime)
}

// runnerUp returns the cheapest evaluated configuration other than the one
// chosen (by cost; ties resolved by enumeration order).
func (p *Plan) runnerUp() (model.Config, bool) {
	var best model.Config
	found := false
	for _, c := range p.AllConfigs {
		if c.Swap == p.Config.Swap && saveEqual(c.Save, p.Config.Save) {
			continue
		}
		if !found || c.Cost.Total() < best.Cost.Total() {
			best = c
			found = true
		}
	}
	return best, found
}

func saveEqual(a, b []bool) bool {
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

func mb(b int64) float64 { return float64(b) / (1 << 20) }
