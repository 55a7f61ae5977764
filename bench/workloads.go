package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"

	"stef"
	"stef/internal/csf"
	"stef/internal/frostt"
	"stef/internal/kernels"
	"stef/internal/tensor"
)

// procs is the fixed compute parallelism of every workload: GOMAXPROCS is
// pinned to it, and a workload runs procs/threads concurrent solves so that
// no more than procs compute threads are ever busy.
const procs = 2

// A workload is one generated input plus the solve configuration run on it.
// The four workloads put the time in different layers; bench/README.md
// records why each was chosen.
//
// Every solve runs a fixed number of iterations. Iterations to convergence
// vary from seed to seed by more than the bounds allow (the mean over 16
// restarts on uber spreads about 8%), so timings to convergence could not
// tell a regression from a different input.
type workload struct {
	name     string
	profile  string // tensor.Profiles entry the input is generated from
	nnzScale int    // multiplies the profile's non-zero count
	rank     int    // CP rank
	iters    int    // ALS iterations of each solve
	threads  int    // compute threads per solve
	restarts int    // solves per sample on one compiled handle, seeded seed, seed+1, ...
	arena    bool   // set up from a packed CSF arena instead of parsing the .tns file
}

// The iteration counts keep each round of solves under a second, so one run
// holds dozens of samples.
var workloads = []workload{
	// Short modes: MTTKRP dominates each iteration, through the order-5
	// walks, and the 13 MB parse plus CSF build are about half of a fit.
	{name: "kernel-heavy", profile: "chicago-crime-geo", nnzScale: 4, rank: 32, iters: 5, threads: 2, restarts: 1},
	// Long modes: the single-threaded dense update over 195k factor rows
	// dominates; a kernel-only change should not move it.
	{name: "dense-heavy", profile: "delicious-3d", nnzScale: 1, rank: 32, iters: 2, threads: 2, restarts: 1},
	// Compile once, solve many: two clients share one plan and its pooled
	// workspaces, at a rank (20) that no specialised kernel covers.
	{name: "restarts", profile: "uber", nnzScale: 1, rank: 20, iters: 8, threads: 1, restarts: 16},
	// Arena set-up skips parse, build and Algorithm 9; the ~94/6 root split
	// stresses load balance and the R=64 kernels.
	{name: "arena-skew", profile: "vast-2015-mc1-3d", nnzScale: 1, rank: 64, iters: 3, threads: 2, restarts: 1, arena: true},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// clients is the number of solves running at once.
func (w workload) clients() int { return procs / w.threads }

// options returns the facade options of every solve; iters > 0 overrides
// the workload's iteration count (the smoke test runs tiny variants).
func (w workload) options(iters int) stef.Options {
	if iters <= 0 {
		iters = w.iters
	}
	return stef.Options{Rank: w.rank, Threads: w.threads, MaxIters: iters, Tol: -1}
}

// Input file names inside a run's input directory.
const (
	tnsFile   = "tensor.tns"
	arenaFile = "tensor.stef"
)

// generate makes the workload's tensor for one seed: the profile's
// generator seed is offset by seed and its non-zero count scaled.
func (w workload) generate(seed int64, scale float64) (*tensor.Tensor, error) {
	p, err := tensor.ProfileByName(w.profile)
	if err != nil {
		return nil, err
	}
	p.NNZ = int(float64(p.NNZ*w.nnzScale) * scale)
	p.Seed += seed
	t := p.Generate()
	if t.NNZ() != p.NNZ {
		return nil, fmt.Errorf("%s: generator produced %d unique non-zeros, want %d", w.name, t.NNZ(), p.NNZ)
	}
	return t, nil
}

// writeInputs stores the tensor in dir as a .tns file and, for arena
// workloads, as a packed arena too.
func (w workload) writeInputs(t *tensor.Tensor, dir string) error {
	if err := frostt.WriteFile(filepath.Join(dir, tnsFile), t); err != nil {
		return err
	}
	if w.arena {
		return stef.SaveArena(t, filepath.Join(dir, arenaFile))
	}
	return nil
}

// handle is one compiled solve handle, plus the arena it reads when the
// workload sets up from one.
type handle struct {
	c    *stef.Compiled
	tree *csf.Tree // nil unless w.arena
	coo  *tensor.Tensor
}

// Close releases the arena backing the handle, if any.
func (h *handle) Close() error {
	if h.tree == nil {
		return nil
	}
	return h.tree.Close()
}

// setup takes the workload from its input file to a compiled handle, the
// part of every solve a user pays once per file. Spans are recorded under
// parent when tr is non-nil. The caller closes the handle.
//
// life: return owned
func (w workload) setup(dir string, iters int, tr *tracer, parent int) (*handle, error) {
	opts := w.options(iters)
	if w.arena {
		h := &handle{}
		var err error
		sp := tr.begin("csf.open_arena", parent)
		h.tree, err = stef.OpenArena(filepath.Join(dir, arenaFile))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("stef.compile", parent)
		h.c, err = stef.CompileTree(h.tree, opts)
		tr.end(sp)
		if err != nil {
			h.Close()
			return nil, err
		}
		return h, nil
	}
	sp := tr.begin("frostt.read", parent)
	t, err := stef.LoadTensor(filepath.Join(dir, tnsFile))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("stef.compile", parent)
	c, err := stef.Compile(t, opts)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &handle{c: c, coo: t}, nil
}

// checkEngine is the correctness gate run before any timing: the file must
// hold exactly the generated non-zeros, the compiled engine's MTTKRP for
// every mode must match kernels.Reference, and a solve from the run's seed
// must reach, iteration by iteration, the fits of the benchmark's own
// reference ALS. The last check catches a change anywhere in the solve that
// lowers the quality of the fitted model, which the timings cannot.
func (w workload) checkEngine(gen *tensor.Tensor, dir string, seed int64, iters int) error {
	h, err := w.setup(dir, iters, nil, -1)
	if err != nil {
		return err
	}
	defer h.Close()
	ref := gen
	if h.coo != nil {
		// The parse infers mode lengths from the largest coordinates, so
		// the loaded tensor is the reference once its entries match.
		if !slices.Equal(h.coo.Inds, gen.Inds) || !slices.Equal(h.coo.Vals, gen.Vals) {
			return fmt.Errorf("%s: %s does not hold the %d generated non-zeros", w.name, tnsFile, gen.NNZ())
		}
		ref = h.coo
	}
	eng := h.c.Engine()
	ws := eng.NewWorkspace()
	factors := tensor.RandomFactors(ref.Dims, w.rank, 1)
	for pos, m := range eng.UpdateOrder() {
		out := tensor.NewMatrix(ref.Dims[m], w.rank)
		eng.Compute(ws, pos, factors, out)
		if e := relErr(out, kernels.Reference(ref, factors, m)); !(e <= 1e-9) {
			return fmt.Errorf("%s: engine MTTKRP for mode %d differs from the reference (max relative error %.3g)", w.name, m, e)
		}
	}

	got, err := h.c.DecomposeSeed(seed)
	if err != nil {
		return err
	}
	want, err := referenceFits(ref, w.rank, eng.UpdateOrder(), seed, w.options(iters).MaxIters)
	if err != nil {
		return err
	}
	if len(got.Fits) != len(want) {
		return fmt.Errorf("%s: solve ran %d iterations, the reference %d", w.name, len(got.Fits), len(want))
	}
	for i, f := range want {
		if !(math.Abs(got.Fits[i]-f) <= fitTol) {
			return fmt.Errorf("%s: fit after iteration %d is %.12g, the reference's %.12g", w.name, i+1, got.Fits[i], f)
		}
	}
	return nil
}

// relErr is the largest absolute difference between got and want relative
// to want's largest magnitude; NaN when the shapes differ.
func relErr(got, want *tensor.Matrix) float64 {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return math.NaN()
	}
	scale := 0.0
	for _, v := range want.Data {
		scale = math.Max(scale, math.Abs(v))
	}
	if scale == 0 {
		scale = 1
	}
	return got.MaxAbsDiff(want) / scale
}

// prepare generates the workload's input for one seed into a fresh
// directory under work and gates it. The caller removes the directory.
func (w workload) prepare(work string, seed int64, scale float64, iters int) (string, error) {
	gen, err := w.generate(seed, scale)
	if err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(work, w.name+"-")
	if err != nil {
		return "", err
	}
	if err := w.writeInputs(gen, dir); err != nil {
		os.RemoveAll(dir)
		return "", err
	}
	if err := w.checkEngine(gen, dir, seed, iters); err != nil {
		os.RemoveAll(dir)
		return "", err
	}
	return dir, nil
}
