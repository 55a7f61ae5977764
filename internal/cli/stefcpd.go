package cli

import (
	"flag"
	"fmt"
	"io"
	"runtime"
	"time"

	"stef"
	"stef/internal/cpd"
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
	opts := stef.Options{
		Rank: *rank, MaxIters: *iters, Tol: *tol, Seed: *seed,
		Threads: *threads, Engine: *engine, Reorder: *reorder,
	}
	var (
		res   *stef.Result
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
		c, err := stef.CompileTree(tree, opts)
		if err != nil {
			return fail(stderr, "stef-cpd", err)
		}
		if res, err = c.Decompose(); err != nil {
			return fail(stderr, "stef-cpd", err)
		}
	} else {
		tt, err := loadTensor(*file, *name)
		if err != nil {
			return fail(stderr, "stef-cpd", err)
		}
		fmt.Fprintf(stdout, "loaded %v\n", tt)
		start = time.Now()
		if res, err = stef.Decompose(tt, opts); err != nil {
			return fail(stderr, "stef-cpd", err)
		}
	}
	total := time.Since(start)

	for i, fit := range res.Fits {
		fmt.Fprintf(stdout, "iter %3d  fit %.6f\n", i+1, fit)
	}
	fmt.Fprintf(stdout, "engine=%s converged=%v iters=%d finalFit=%.6f\n", *engine, res.Converged, res.Iters, res.FinalFit())
	fmt.Fprintf(stdout, "total %v, MTTKRP %v (%.1f%%)\n", total.Round(time.Millisecond), res.MTTKRPTime.Round(time.Millisecond),
		100*float64(res.MTTKRPTime)/float64(total))
	if *export != "" {
		if err := cpd.SaveKruskal(*export, res); err != nil {
			return fail(stderr, "stef-cpd", err)
		}
		fmt.Fprintf(stdout, "factors written to %s\n", *export)
	}
	return 0
}
