package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"stef"
	"stef/internal/cpd"
	"stef/internal/kernels"
)

// RunStefCPD implements cmd/stef-cpd: run CPD-ALS on a tensor with any
// engine and report per-iteration fit and timing.
func RunStefCPD(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stef-cpd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		file    = fs.String("file", "", "path to a FROSTT .tns tensor file")
		name    = fs.String("tensor", "", "name of a synthetic benchmark tensor (see -list)")
		arena   = fs.String("arena", "", "path to a CSF arena file (opened zero-copy, no reorder/rebuild; stef engine only)")
		list    = fs.Bool("list", false, "list available synthetic tensors and exit")
		engine  = fs.String("engine", "stef", "engine: stef, stef2, splatt-1, splatt-2, splatt-all, adatm, alto, taco, hicoo, dtree, naive")
		rank    = fs.Int("rank", 32, "decomposition rank R")
		iters   = fs.Int("iters", 20, "maximum ALS iterations")
		tol     = fs.Float64("tol", 1e-5, "fit-change convergence tolerance (negative: run all iterations)")
		threads = fs.Int("threads", runtime.GOMAXPROCS(0), "worker threads")
		seed    = fs.Int64("seed", 42, "random seed for initial factors")
		reorder = fs.String("reorder", "", "optional index reordering: lexi or bfsmcs")
		export  = fs.String("export", "", "write the resulting factors/lambda to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		listProfiles(stdout)
		return 0
	}
	if *rank < 1 || *threads < 1 {
		fmt.Fprintf(stderr, "stef-cpd: -rank %d and -threads %d must both be at least 1\n", *rank, *threads)
		return 2
	}
	opts := stef.Options{
		Rank: *rank, MaxIters: *iters, Tol: *tol, Seed: *seed,
		Threads: *threads, Engine: *engine, Reorder: *reorder,
	}
	var (
		c     *stef.Compiled
		start time.Time
	)
	if *arena != "" {
		if *file != "" || *name != "" {
			return fail(stderr, "stef-cpd", fmt.Errorf("-arena is exclusive with -file and -tensor"))
		}
		openStart := time.Now()
		tree, err := stef.OpenArena(*arena)
		if err != nil {
			return fail(stderr, "stef-cpd", err)
		}
		defer tree.Close()
		fmt.Fprintf(stdout, "opened arena %s: order %d, nnz %d, backing %s, %v\n",
			*arena, tree.Order(), tree.NNZ(), tree.Backing().Kind(), time.Since(openStart))
		start = time.Now()
		if c, err = stef.CompileTree(tree, opts); err != nil {
			return fail(stderr, "stef-cpd", err)
		}
	} else {
		loadStart := time.Now()
		tt, err := loadTensor(*file, *name)
		if err != nil {
			return fail(stderr, "stef-cpd", err)
		}
		if parse := time.Since(loadStart); *file != "" {
			// The parse's share of set-up, next to the build and
			// preprocessing times below, at the rate of the file's bytes.
			st, err := os.Stat(*file)
			if err != nil {
				return fail(stderr, "stef-cpd", err)
			}
			fmt.Fprintf(stdout, "loaded %v, parse %v at %.0f MB/s\n", tt, parse.Round(10*time.Microsecond), float64(st.Size())/1e6/parse.Seconds())
		} else {
			fmt.Fprintf(stdout, "loaded %v\n", tt)
		}
		start = time.Now()
		if c, err = stef.Compile(tt, opts); err != nil {
			return fail(stderr, "stef-cpd", err)
		}
	}
	setup := time.Since(start)
	if plan := c.Plan(); plan != nil {
		fmt.Fprintf(stdout, "set-up %v (CSF build %v, Alg. 9 + census + model search %v)\n",
			setup.Round(time.Millisecond), plan.BuildTime.Round(time.Millisecond), plan.PreprocessTime.Round(time.Millisecond))
		runs, prims := kernels.KernelPath(plan.Tree.Order(), plan.Config.Save)
		fmt.Fprintf(stdout, "kernels: %s, %s\n", runs, prims)
	} else {
		fmt.Fprintf(stdout, "set-up %v\n", setup.Round(time.Millisecond))
	}
	start = time.Now()
	res, err := c.Decompose()
	if err != nil {
		return fail(stderr, "stef-cpd", err)
	}
	solve := time.Since(start)

	for i, fit := range res.Fits {
		fmt.Fprintf(stdout, "iter %3d  fit %.6f\n", i+1, fit)
	}
	fmt.Fprintf(stdout, "engine=%s converged=%v iters=%d finalFit=%.6f\n", *engine, res.Converged, res.Iters, res.FinalFit())
	fmt.Fprintf(stdout, "solve %v, start-up %v, MTTKRP %v (%.1f%% of solve)\n", solve.Round(time.Millisecond),
		res.InitTime.Round(time.Microsecond), res.MTTKRPTime.Round(time.Millisecond), 100*float64(res.MTTKRPTime)/float64(solve))
	if *export != "" {
		if err := cpd.SaveKruskal(*export, res); err != nil {
			return fail(stderr, "stef-cpd", err)
		}
		fmt.Fprintf(stdout, "factors written to %s\n", *export)
	}
	return 0
}
