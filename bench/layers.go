package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"stef/internal/core"
	"stef/internal/csf"
	"stef/internal/dense"
	"stef/internal/kernels"
	"stef/internal/model"
	"stef/internal/sched"
	"stef/internal/tensor"
)

// spanMetrics are the layers whose metric is the median summed duration of
// one span name: per set-up for the set-up layers, per replayed iteration
// for the dense ones.
var spanMetrics = []string{
	"frostt.read", "csf.open_arena", "stef.compile",
	"csf.build", "csf.alg9", "sched.partition", "kernels.census", "core.plan",
	"dense.gram", "dense.cholesky", "dense.solve_rows", "dense.normalize",
}

// traceLayers fills in the per-layer metrics of a traced run: the solve
// time split of the traced warm rounds, then replays of the set-up steps,
// the kernels and the dense update on the workload's own plan and shapes
// until left has passed. Replays are labelled as samples from next on.
func (w workload) traceLayers(j job, tr *tracer, traced []batch, next int, r *runResult, left time.Duration) error {
	for _, b := range traced {
		it := float64(max(b.iters, 1))
		r.add("core.compute_ms", ms(b.mttkrp)/it)
		for pos := 0; pos < maxOrder; pos++ {
			v := 0.0
			if pos < len(b.posTime) {
				v = ms(b.posTime[pos]) / it
			}
			r.add(fmt.Sprintf("core.compute.pos%d_ms", pos), v)
		}
		r.add("cpd.dense_self_ms", ms(b.latency-b.mttkrp)/it)
		r.add("cpd.fit", b.fit)
	}

	h, err := w.setup(j.Dir, j.Iters, nil, -1)
	if err != nil {
		return err
	}
	defer h.Close()
	plan := h.c.Plan()
	coo := h.coo
	if coo == nil {
		coo = h.tree.ToCOO(origDims(h.tree))
	}
	factors := tensor.RandomFactors(coo.Dims, w.rank, j.Seed)
	kr := newKernelReplay(plan, w.rank, w.threads, factors)
	dr := newDenseReplay(factors)
	replayOK := true
	deadline := time.Now().Add(left)
	for rep := 0; rep < minSamples || time.Now().Before(deadline); rep++ {
		tr.setSample(next + rep)
		root := tr.begin("replay", -1)
		err := w.replaySetup(h, coo, tr, root)
		if err == nil {
			kr.run(tr, root)
			if rep == 0 {
				replayOK = kr.matches(coo, factors)
			}
			err = dr.run(tr, root)
		}
		tr.end(root)
		if err != nil {
			return err
		}
	}

	for _, name := range spanMetrics {
		r.add(name+"_ms", tr.medianMS(name))
	}
	r.add("core.plan_self_ms", tr.medianMS("core.plan")-tr.medianMS("csf.build")-tr.medianMS("csf.alg9")-
		tr.medianMS("sched.partition")-tr.medianMS("kernels.census"))
	readMBs := 0.0
	if !w.arena {
		st, err := os.Stat(filepath.Join(j.Dir, tnsFile))
		if err != nil {
			return err
		}
		readMBs = float64(st.Size()) / 1e6 / (tr.medianMS("frostt.read") / 1e3)
	}
	r.add("frostt.read_mb_s", readMBs)
	r.add("csf.tree_mb", float64(plan.Tree.Bytes())/1e6)

	if replayOK {
		r.add("kernels.replay_ok", 1)
	} else {
		fmt.Fprintf(os.Stderr, "%s: kernel replay disagrees with the reference; its timings are reported as 0\n", w.name)
		r.add("kernels.replay_ok", 0)
	}
	save := plan.Config.Save
	d := plan.Tree.Order()
	for l := 0; l < maxOrder; l++ {
		var walk, reset, reduce, modelMB, gbs float64
		if l < d {
			modelMB = float64(plan.Params.ModeCost(save, l).Total()) * 8 / 1e6
		}
		if l < d && replayOK {
			walk = tr.medianMS(kr.names[l][0])
			reset = tr.medianMS(kr.names[l][1])
			reduce = tr.medianMS(kr.names[l][2])
			gbs = modelMB / (walk + reset + reduce) // MB per ms is GB/s
		}
		r.add(fmt.Sprintf("kernels.L%d.walk_ms", l), walk)
		if l > 0 {
			r.add(fmt.Sprintf("kernels.L%d.reset_ms", l), reset)
			r.add(fmt.Sprintf("kernels.L%d.reduce_ms", l), reduce)
		}
		r.add(fmt.Sprintf("kernels.L%d.model_mb", l), modelMB)
		r.add(fmt.Sprintf("kernels.L%d.gb_s", l), gbs)
	}
	r.add("sched.imbalance_pct", sched.ImbalancePct(plan.Part.Loads()))
	r.add("model.memo_mb", float64(plan.Params.MemoBytes(save))/1e6)
	r.add("model.iter_mb", float64(plan.Params.IterationCost(save).Total())*8/1e6)
	return nil
}

// origDims returns the tree's mode lengths in original mode order.
func origDims(tree *csf.Tree) []int {
	dims := make([]int, tree.Order())
	for l, m := range tree.Perm() {
		dims[m] = tree.Dim(l)
	}
	return dims
}

// replaySetup re-runs, one at a time, the steps stef.Compile takes inside
// core's planner: the CSF build (twice when the plan swapped the last two
// modes), the Algorithm 9 count, the whole plan, the partition and the
// row-write census. An arena plan skips the build and the count.
func (w workload) replaySetup(h *handle, coo *tensor.Tensor, tr *tracer, parent int) error {
	plan := h.c.Plan()
	opts := core.Options{Rank: w.rank, Threads: w.threads}
	var err error
	if w.arena {
		sp := tr.begin("core.plan", parent)
		_, err = core.NewPlanFromTree(h.tree, opts)
		tr.end(sp)
	} else {
		sp := tr.begin("csf.build", parent)
		base := csf.Build(coo, tensor.LengthSortedPerm(coo.Dims))
		if plan.Config.Swap {
			csf.Build(coo, plan.Tree.Perm())
		}
		tr.end(sp)
		sp = tr.begin("csf.alg9", parent)
		base.CountSwappedFibers(w.threads)
		tr.end(sp)
		sp = tr.begin("core.plan", parent)
		_, err = core.NewPlan(coo, opts)
		tr.end(sp)
	}
	if err != nil {
		return err
	}
	sp := tr.begin("sched.partition", parent)
	part := sched.NewPartition(plan.Tree, w.threads)
	tr.end(sp)
	sp = tr.begin("kernels.census", parent)
	for u := 1; u < plan.Tree.Order(); u++ {
		kernels.CountRowWrites(plan.Tree, part, u, model.SourceLevel(plan.Config.Save, u))
	}
	tr.end(sp)
	return nil
}

// kernelReplay drives one iteration's MTTKRP kernels on a plan's tree,
// partition and accumulation plans, so each level's walk, output reset and
// reduce can be timed apart.
type kernelReplay struct {
	tree     *csf.Tree
	part     *sched.Partition
	lf       []*tensor.Matrix
	partials *kernels.Partials
	scratch  *kernels.Scratch
	bufs     []*kernels.OutBuf
	outs     []*tensor.Matrix
	names    [][3]string // per level: walk, reset and reduce span names
}

func newKernelReplay(plan *core.Plan, rank, threads int, factors []*tensor.Matrix) *kernelReplay {
	tree := plan.Tree
	d := tree.Order()
	k := &kernelReplay{
		tree:     tree,
		part:     plan.Part,
		lf:       make([]*tensor.Matrix, d),
		partials: kernels.NewPartials(tree, rank, plan.Config.Save),
		scratch:  kernels.NewScratch(d, rank, threads),
		bufs:     make([]*kernels.OutBuf, d),
		outs:     make([]*tensor.Matrix, d),
		names:    make([][3]string, d),
	}
	kernels.LevelFactorsInto(k.lf, factors, tree.Perm())
	for l := 0; l < d; l++ {
		k.outs[l] = tensor.NewMatrix(tree.Dim(l), rank)
		if l > 0 {
			k.bufs[l] = kernels.NewOutBufPlanned(plan.Accum[l])
		}
		for i, phase := range []string{"walk", "reset", "reduce"} {
			k.names[l][i] = fmt.Sprintf("kernels.L%d.%s", l, phase)
		}
	}
	return k
}

// run replays one iteration: the root walk, which also writes the memoized
// partials, then each lower level's reset, walk and reduce.
func (k *kernelReplay) run(tr *tracer, parent int) {
	sp := tr.begin(k.names[0][0], parent)
	kernels.RootMTTKRPWith(k.tree, k.lf, k.outs[0], k.partials, k.part, k.scratch)
	tr.end(sp)
	for u := 1; u < len(k.outs); u++ {
		sp = tr.begin(k.names[u][1], parent)
		k.bufs[u].Reset()
		tr.end(sp)
		sp = tr.begin(k.names[u][0], parent)
		kernels.ModeMTTKRPWith(k.tree, k.lf, u, k.partials, k.bufs[u], k.part, k.scratch)
		tr.end(sp)
		sp = tr.begin(k.names[u][2], parent)
		k.bufs[u].Reduce(k.outs[u])
		tr.end(sp)
	}
}

// matches reports whether every replayed output equals the reference
// MTTKRP. A plan whose engine executes another view of the tree than
// plan.Tree fails this, and its replay timings would describe work the
// solve never does.
func (k *kernelReplay) matches(coo *tensor.Tensor, factors []*tensor.Matrix) bool {
	for l, m := range k.tree.Perm() {
		if !(relErr(k.outs[l], kernels.Reference(coo, factors, m)) <= 1e-9) {
			return false
		}
	}
	return true
}

// denseReplay runs one iteration's dense ALS update on the workload's
// factor shapes, with the steps cpd.RunWith takes for every mode.
type denseReplay struct {
	factors, grams, x []*tensor.Matrix
	v                 *tensor.Matrix
	norms             []float64
	chol              dense.Cholesky
}

func newDenseReplay(factors []*tensor.Matrix) *denseReplay {
	r := factors[0].Cols
	d := &denseReplay{factors: factors, v: tensor.NewMatrix(r, r), norms: make([]float64, r)}
	for _, f := range factors {
		d.grams = append(d.grams, dense.Gram(f, nil))
		d.x = append(d.x, tensor.NewMatrix(f.Rows, f.Cols))
	}
	return d
}

// run replays every mode's update: V from the other modes' Grams and its
// Cholesky factor, the row solve, column normalisation and the new Gram.
// The factors stay fixed, so every replay does the same arithmetic.
func (d *denseReplay) run(tr *tracer, parent int) error {
	for m := range d.factors {
		sp := tr.begin("dense.cholesky", parent)
		dense.OnesInto(d.v)
		for mm, g := range d.grams {
			if mm != m {
				dense.HadamardInto(d.v, g)
			}
		}
		err := d.chol.Refactor(d.v)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("dense.solve_rows", parent)
		d.x[m].CopyFrom(d.factors[m])
		d.chol.SolveRowsInPlace(d.x[m])
		tr.end(sp)
		sp = tr.begin("dense.normalize", parent)
		dense.NormalizeColumnsMaxInto(d.x[m], d.norms)
		tr.end(sp)
		sp = tr.begin("dense.gram", parent)
		dense.Gram(d.factors[m], d.grams[m])
		tr.end(sp)
	}
	return nil
}
