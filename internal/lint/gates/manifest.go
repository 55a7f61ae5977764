package gates

// Manifest declares which packages are compiled with diagnostics enabled
// and which of their functions are hot: inside a hot function, any escape
// or bounds-check diagnostic positioned in a loop body is a violation
// unless a //gate:allow directive covers it. Diagnostics anywhere else in
// the gated packages are baseline-ratcheted instead.
type Manifest struct {
	// Packages are the import paths built with -m=1 -d=ssa/check_bce.
	Packages []string
	// Rules lists the hot functions by qualified short name
	// ("pkgname.Func" or "pkgname.Type.Method").
	Rules []Rule
	// Shapes lists per-function machine-code assertions checked against
	// the -S listing (shape.go).
	Shapes []ShapeRule
}

// Rule marks one function as hot.
type Rule struct {
	// Func is the qualified short name, e.g. "kernels.rootGeneric".
	Func string
	// Note records why the function is on the manifest; it is echoed in
	// failure messages so a gate trip explains itself.
	Note string
}

func (m *Manifest) ruleFor(fn string) (Rule, bool) {
	for _, r := range m.Rules {
		if r.Func == fn {
			return r, true
		}
	}
	return Rule{}, false
}

// IsGatedPackage reports whether the default manifest compiles pkgPath
// with diagnostics — i.e. whether //gate:allow directives in that package
// can ever take effect.
func IsGatedPackage(pkgPath string) bool {
	for _, p := range Default().Packages {
		if p == pkgPath {
			return true
		}
	}
	return false
}

// Default is the repository's manifest: the per-nnz MTTKRP path from the
// paper's Algorithms 2–9 plus the thread-launch and partition machinery it
// runs under. The stated notes mirror the paper's cost model — these
// functions execute O(nnz) (or O(fibers)) times per CPD iteration, so a
// single stray allocation or check multiplies across the whole tensor.
func Default() *Manifest {
	return &Manifest{
		Packages: []string{
			"stef/internal/kernels",
			"stef/internal/par",
			"stef/internal/sched",
			"stef/internal/dense",
			"stef/internal/tensor",
		},
		Rules: []Rule{
			{Func: "kernels.RootMTTKRPWith", Note: "root-mode dispatch (Alg. 4/5), runs once per iteration but owns the boundary-replica setup loop"},
			{Func: "kernels.rootGeneric", Note: "root kernel launch at every order; the T==1 path calls the thread body directly"},
			{Func: "kernels.rootGenericThread", Note: "root kernel at every order (per-thread body): the level table set-up and the root-node loop"},
			{Func: "kernels.rootWalk.rec", Note: "root recursion at every order, once per internal CSF node above the fused runs"},
			{Func: "kernels.rootSubtrees", Note: "subtree-parallel root kernel (ablation path), per-nnz"},
			{Func: "kernels.modeSubtrees", Note: "subtree-parallel non-root kernel, per-nnz"},
			{Func: "kernels.ModeMTTKRPWith", Note: "non-root entry (Alg. 6-8)"},
			{Func: "kernels.modeGeneric", Note: "non-root kernel launch at every order; the T==1 path calls the thread body directly"},
			{Func: "kernels.modeGenericThread", Note: "non-root kernel at every order (per-thread body): the level table set-up and the root-node loop"},
			{Func: "kernels.modeWalk.walk", Note: "non-root recursion above level u at every order, once per internal CSF node above the fused runs"},
			{Func: "kernels.modeWalk.down", Note: "non-root recursion below level u at every order, once per internal CSF node above the fused runs"},
			{Func: "kernels.zero", Note: "rank-vector clear inside every fiber visit; must lower to memclr"},
			{Func: "kernels.addScaled", Note: "leaf-level axpy, executed once per nonzero"},
			{Func: "kernels.OutBufThread.AddScaled", Note: "per-add output scatter: hot-replica / direct / CAS dispatch, once per leaf write"},
			{Func: "kernels.OutBufThread.AddHadamard", Note: "per-add output scatter (Hadamard form), once per internal-node write"},
			{Func: "kernels.OutBufThread.RunOut", Note: "a run of level d-2 fibers' leaf sums folded into their output rows: fused on a private slab, sum then AddHadamard per fiber elsewhere"},
			{Func: "kernels.OutBufThread.RunScatter", Note: "leaf-mode push-down and scatter of a run of level d-2 fibers: fused on a private slab, one AddScaled per leaf elsewhere"},
			{Func: "kernels.OutBufThread.NodeOut", Note: "a level d-4 node's children summed from their fibers and added into their output rows (u = d-3): fused on a private slab, runHad then AddHadamard per node elsewhere"},
			{Func: "kernels.OutBufThread.NodePushOut", Note: "a level d-4 node's children pushed down to their fibers' output rows (u = d-2): fused on a private slab, hadamardInto then RunOut per node elsewhere"},
			{Func: "kernels.OutBufThread.NodePushScatter", Note: "a level d-4 node's children pushed down to the leaf scatter (u = d-1): fused on a private slab, hadamardInto then RunScatter per node elsewhere"},
			{Func: "kernels.OutBuf.Reduce", Note: "touched-row reduction driver, O(touched·R) per mode solve"},
			{Func: "kernels.OutBuf.reducePrivRows", Note: "journal-guided privatized reduction loop, per touched row: completes thread 0's slab (the bound output) from replicas 1..T-1"},
			{Func: "kernels.OutBuf.resetPriv", Note: "a replica's journal clear: thread 0's slab at the start of every launch, the other replicas after an abandoned one, O(touched·R)"},
			{Func: "kernels.OutBuf.reduceHybridRows", Note: "hot-slab combine + cold-row copy loop, per touched row"},
			{Func: "kernels.OutBuf.combineHot", Note: "log-T tree combine of the hot replica slabs"},
			{Func: "kernels.CountRowWrites", Note: "O(nnz) write census behind every accumulation plan"},
			{Func: "kernels.hadamardAccum", Note: "fiber fold-up, executed once per internal CSF node"},
			{Func: "kernels.hadamardInto", Note: "downward Khatri-Rao product, executed once per internal CSF node"},
			{Func: "kernels.fiberSum", Note: "Go form of one fiber's leaf sum, the axpy loop over its non-zeros"},
			{Func: "kernels.fiberHad", Note: "Go form of one fiber's leaf sum and fold-up, once per memoized level d-2 fiber"},
			{Func: "kernels.runHad", Note: "Go form of a run of level d-2 fibers' leaf sums and fold-ups, once per level d-3 node"},
			{Func: "kernels.runOut", Note: "Go form of a run's leaf sums folded into output rows, once per level d-3 node"},
			{Func: "kernels.runScatter", Note: "Go form of a run's push-downs and leaf scatters, once per level d-3 node"},
			{Func: "kernels.nodeHad", Note: "Go form of a level d-4 node's children summed and folded up, once per level d-4 node"},
			{Func: "kernels.nodeOut", Note: "Go form of a level d-4 node's children summed into their output rows, once per level d-4 node"},
			{Func: "kernels.nodePushOut", Note: "Go form of a level d-4 node's children pushed down to their fibers' output rows, once per level d-4 node"},
			{Func: "kernels.nodePushScatter", Note: "Go form of a level d-4 node's children pushed down to the leaf scatter, once per level d-4 node"},
			{Func: "par.Blocks", Note: "thread launcher wrapping every parallel kernel"},
			{Func: "par.Do", Note: "thread launcher wrapping every parallel kernel"},
			{Func: "sched.NewPartition", Note: "nnz-balanced partition walk (Alg. 3), O(nnz) leaf scan at build time"},
			{Func: "dense.Cholesky.solve4", Note: "four-row interleaved SPD solve, O(R²) per factor row in every ALS mode update"},
			{Func: "dense.solvePass", Note: "dense update pass A (solve in place, clamp, column statistic, the fit's <X, M>), once per factor row per mode"},
			{Func: "dense.scalePass", Note: "dense update pass B (normalise, Gram partial), O(R²) per factor row per mode"},
			{Func: "dense.foldStat", Note: "pass A's column statistic (sum of squares or max magnitude) and <X, M> row sums, once per factor row per mode"},
			{Func: "dense.rowDot", Note: "pass A's <X, M> share of one row on the Go pass, in the AVX2 scatter's order, once per factor row per mode"},
			{Func: "dense.solveLanes", Note: "AVX2 pass A glue: the +0-row skip and the 16-row lane groups, whose scatter also forms <X, M>, once per factor row per mode"},
			{Func: "dense.scaleLanes", Note: "AVX2 pass B glue: the +0-row skip, the divide and four-row Gram calls, once per factor row per mode"},
			{Func: "dense.gramLanes", Note: "solve start-up's block Gram on AVX2: the +0-row skip and the four-row Gram calls, once per initial factor row"},
			{Func: "dense.GramStream.Add", Note: "solve start-up's block Gram dispatch, once per block of initial factor rows"},
			{Func: "tensor.uniforms", Note: "solve start-up's Float64 conversion, once per initial factor entry"},
			{Func: "tensor.Uniform.refill", Note: "solve start-up's lagged-Fibonacci refill, once per 607 initial factor entries"},
			{Func: "tensor.Uniform.Fill", Note: "solve start-up's ring walk, once per block of initial factor rows"},
		},
		// Shape rules for the generic Go rank-vector primitives and the
		// dense update's passes. The AVX2 primitives (vec_amd64.s) are
		// assembled, not compiled, so they have no -S listing; their
		// contract tests and vet's asmdecl cover them instead.
		Shapes: []ShapeRule{
			{
				Func: "kernels.addScaled", Note: "8-wide unrolled axpy: call-free, >=8 FP muls per iteration",
				MaxCalls: 0, MaxLoopCalls: 0, MaxBounds: Unchecked, MinFPMul: 8, MaxLoopFrameLoads: 0,
			},
			{
				Func: "kernels.hadamardAccum", Note: "8-wide unrolled fused multiply-accumulate fold",
				MaxCalls: 0, MaxLoopCalls: 0, MaxBounds: Unchecked, MinFPMul: 8, MaxLoopFrameLoads: 0,
			},
			{
				Func: "kernels.hadamardInto", Note: "8-wide unrolled elementwise product",
				MaxCalls: 0, MaxLoopCalls: 0, MaxBounds: Unchecked, MinFPMul: 8, MaxLoopFrameLoads: 0,
			},
			{
				Func: "dense.Cholesky.solve4", Note: "four right-hand sides per substitution step: call-free, 4 FP muls in each sweep",
				MaxCalls: 0, MaxLoopCalls: 0, MaxBounds: Unchecked, MinFPMul: 8, MaxLoopFrameLoads: Unchecked,
			},
			{
				Func: "dense.solvePass", Note: "pass A: per four-row group, one call to the call-free solve and one to the column and <X, M> fold",
				MaxCalls: 2, MaxLoopCalls: 2, MaxBounds: Unchecked, MinFPMul: 0, MaxLoopFrameLoads: Unchecked,
			},
			{
				Func: "dense.rowDot", Note: "<X, M> row dot: call-free, four partial sums per step",
				MaxCalls: 0, MaxLoopCalls: 0, MaxBounds: Unchecked, MinFPMul: 4, MaxLoopFrameLoads: Unchecked,
			},
			{
				Func: "dense.scalePass", Note: "pass B: call-free, the 4-row Gram update multiplies four rows per element",
				MaxCalls: 0, MaxLoopCalls: 0, MaxBounds: Unchecked, MinFPMul: 4, MaxLoopFrameLoads: Unchecked,
			},
			{
				Func: "tensor.uniforms", Note: "start-up fill: call-free and check-free, one convert and one multiply per value",
				MaxCalls: 0, MaxLoopCalls: 0, MaxBounds: 0, MinFPMul: 1, MaxLoopFrameLoads: 0,
			},
			{
				Func: "tensor.Uniform.refill", Note: "start-up refill: call-free and check-free integer adds over the fixed ring",
				MaxCalls: 0, MaxLoopCalls: 0, MaxBounds: 0, MinFPMul: 0, MaxLoopFrameLoads: 0,
			},
		},
	}
}
