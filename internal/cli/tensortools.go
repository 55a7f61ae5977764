package cli

import (
	"flag"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"time"

	"stef/internal/core"
	"stef/internal/csf"
	"stef/internal/frostt"
	"stef/internal/sched"
	"stef/internal/tensor"
)

// RunTensorGen implements cmd/tensorgen: materialise benchmark or custom
// random tensors as .tns files.
func RunTensorGen(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tensorgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name  = fs.String("tensor", "", "named benchmark profile (see -list)")
		list  = fs.Bool("list", false, "list profiles and exit")
		dims  = fs.String("dims", "", "custom mode lengths, e.g. 100x200x300")
		nnz   = fs.Int("nnz", 10000, "custom non-zero count")
		skew  = fs.String("skew", "", "comma-separated Zipf exponents per mode (0 = uniform)")
		seed  = fs.Int64("seed", 1, "generation seed")
		out   = fs.String("o", "", "output path (default stdout; .gz compresses)")
		huge  = fs.Bool("hugedims", false, "generate the int32-boundary stress tensor (two modes just under 2^31; -nnz and -seed apply)")
		arena = fs.String("arena", "", "also pack the tensor's CSF into an arena file at this path (opened zero-copy by tensorinfo/stef-cpd -arena)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		listProfiles(stdout)
		return 0
	}
	if *nnz < 0 {
		return usage(stderr, "tensorgen", fmt.Errorf("-nnz %d is negative", *nnz))
	}
	var tt *tensor.Tensor
	switch {
	case *huge:
		if *name != "" || *dims != "" {
			return fail(stderr, "tensorgen", fmt.Errorf("-hugedims is exclusive with -tensor and -dims"))
		}
		tt = tensor.HugeBoundary(tensor.HugeDims(), *nnz, *seed)
	case *name != "":
		p, err := tensor.ProfileByName(*name)
		if err != nil {
			return fail(stderr, "tensorgen", err)
		}
		tt = p.Generate()
	case *dims != "":
		d, err := ParseDims(*dims)
		if err != nil {
			return fail(stderr, "tensorgen", err)
		}
		var sk []float64
		if *skew != "" {
			sk, err = ParseSkew(*skew, len(d))
			if err != nil {
				return fail(stderr, "tensorgen", err)
			}
		}
		tt = tensor.Random(d, *nnz, sk, *seed)
	default:
		return fail(stderr, "tensorgen", fmt.Errorf("specify -tensor, -dims or -hugedims (or -list)"))
	}

	fmt.Fprintf(stderr, "generated %v\n", tt)
	if *arena != "" {
		tree := csf.Build(tt, nil)
		if err := tree.WriteArena(*arena); err != nil {
			return fail(stderr, "tensorgen", err)
		}
		fmt.Fprintf(stderr, "packed CSF arena %s (%d bytes CSF)\n", *arena, tree.Bytes())
		if *out == "" {
			// -arena alone: the arena is the artifact; don't dump the .tns
			// stream to stdout as well.
			return 0
		}
	}
	if *out == "" {
		if err := frostt.Write(stdout, tt); err != nil {
			return fail(stderr, "tensorgen", err)
		}
		return 0
	}
	if err := frostt.WriteFile(*out, tt); err != nil {
		return fail(stderr, "tensorgen", err)
	}
	return 0
}

// RunTensorInfo implements cmd/tensorinfo: print the structural statistics
// that drive STeF's decisions.
func RunTensorInfo(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tensorinfo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		file    = fs.String("file", "", "path to a FROSTT .tns tensor file")
		name    = fs.String("tensor", "", "named benchmark profile")
		arena   = fs.String("arena", "", "path to a CSF arena file (opened zero-copy; exclusive with -file/-tensor)")
		rank    = fs.Int("rank", 32, "rank used for the model's decision")
		threads = fs.Int("threads", runtime.GOMAXPROCS(0), "threads for partition statistics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *rank < 1 || *threads < 1 {
		return usage(stderr, "tensorinfo", fmt.Errorf("-rank %d and -threads %d must both be at least 1", *rank, *threads))
	}
	var (
		tree *csf.Tree
		tt   *tensor.Tensor
	)
	if *arena != "" {
		if *file != "" || *name != "" {
			return fail(stderr, "tensorinfo", fmt.Errorf("-arena is exclusive with -file and -tensor"))
		}
		start := time.Now()
		opened, err := csf.OpenArena(*arena)
		if err != nil {
			return fail(stderr, "tensorinfo", err)
		}
		defer opened.Close()
		tree = opened
		fmt.Fprintf(stdout, "arena %s: order %d, nnz %d, backing %s, opened in %v\n",
			*arena, tree.Order(), tree.NNZ(), tree.Backing().Kind(), time.Since(start))
	} else {
		var err error
		tt, err = loadTensor(*file, *name)
		if err != nil {
			return fail(stderr, "tensorinfo", err)
		}
		fmt.Fprintf(stdout, "%v\n", tt)
		tree = csf.Build(tt, nil)
	}
	d := tree.Order()
	fmt.Fprintf(stdout, "CSF mode order (original mode index per level): %v\n", tree.Perm())
	fmt.Fprintf(stdout, "CSF bytes: %d\n", tree.Bytes())
	tree.WriteStats(stdout)
	fmt.Fprintf(stdout, "swapped-order fibers at level %d (Alg. 9): %d\n", d-2, tree.CountSwappedFibers(*threads))

	sp := sched.NewSlicePartitionNNZ(tree, *threads)
	bp := sched.NewPartition(tree, *threads)
	fmt.Fprintf(stdout, "slice-partition imbalance:    %.1f%%\n", sched.ImbalancePct(sp.SliceLoads(tree)))
	fmt.Fprintf(stdout, "balanced-partition imbalance: %.1f%%\n", sched.ImbalancePct(bp.Loads()))

	// An arena tree is planned in its packed layout: deriving the swapped
	// one would copy the mapped levels to the heap, the copy that opening
	// an arena avoids. A freshly loaded tensor's plan may also swap.
	var (
		plan *core.Plan
		err  error
	)
	if tt != nil {
		plan, err = core.NewPlan(tt, core.Options{Rank: *rank, Threads: *threads})
	} else {
		plan, err = core.NewPlanFromTree(tree, core.Options{Rank: *rank, Threads: *threads})
	}
	if err != nil {
		return fail(stderr, "tensorinfo", err)
	}
	plan.Describe(stdout)

	// The plan's own parameters priced the configuration, so the
	// breakdown totals the modeled cost printed above.
	fmt.Fprintln(stdout, "\nper-mode data-movement breakdown (chosen configuration):")
	plan.Params.Explain(stdout, plan.Config.Save)
	return 0
}

// ParseDims parses "100x200x300" into mode lengths.
func ParseDims(s string) ([]int, error) {
	parts := strings.Split(s, "x")
	dims := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad dimension %q", p)
		}
		dims[i] = v
	}
	if len(dims) < 2 {
		return nil, fmt.Errorf("need at least 2 modes")
	}
	return dims, nil
}

// ParseSkew parses a comma-separated Zipf exponent list of arity d.
func ParseSkew(s string, d int) ([]float64, error) {
	parts := strings.Split(s, ",")
	if len(parts) != d {
		return nil, fmt.Errorf("skew has %d entries for %d modes", len(parts), d)
	}
	sk := make([]float64, d)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad skew %q", p)
		}
		sk[i] = v
	}
	return sk, nil
}
