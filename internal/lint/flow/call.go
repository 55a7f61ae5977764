package flow

import (
	"go/ast"
	"go/types"
	"strings"
)

// evalCall evaluates a call expression and returns its result values
// (at least want entries when the callee is opaque).
func (a *analysis) evalCall(call *ast.CallExpr, want int) []value {
	pad := func(vs []value) []value {
		for len(vs) < want {
			vs = append(vs, value{})
		}
		return vs
	}
	opaque := func() []value {
		out := make([]value, want)
		sig, _ := a.exprType(call.Fun).(*types.Signature)
		for i := range out {
			var rt types.Type
			if sig != nil && i < sig.Results().Len() {
				rt = sig.Results().At(i).Type()
			}
			if rt != nil && pointerLike(rt) {
				out[i].reg = region{kind: regUnknown}
			}
		}
		return out
	}

	// Conversion: T(x) passes the value through.
	if tv, ok := a.info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return pad([]value{a.eval(call.Args[0])})
		}
		return opaque()
	}

	fun := ast.Unparen(call.Fun)

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := a.info.Uses[id].(*types.Builtin); isBuiltin {
			return pad(a.evalBuiltin(id.Name, call))
		}
		// Call through a local closure variable.
		if obj := a.info.Uses[id]; obj != nil {
			if lit, isLit := a.lits[obj]; isLit {
				return pad(a.callLit(lit, call))
			}
		}
	}
	// Immediately invoked literal.
	if lit, ok := fun.(*ast.FuncLit); ok {
		return pad(a.callLit(lit, call))
	}

	fn := calleeFunc(a.info, call)

	// Parallel launch (par.Do / par.Blocks / a wrapper): the callback runs
	// on other goroutines and is checked as its own entry by Entries();
	// here the call contributes nothing. Non-literal non-callback args are
	// still evaluated for effects.
	if positions := a.prog.parCallbackPos(fn); positions != 0 {
		for i, arg := range call.Args {
			if positions.has(i) {
				continue
			}
			a.eval(arg)
		}
		return opaque()
	}

	// sync/atomic read-modify-write results act as claim tokens: the
	// returned (old/new) value is unique to the winning thread, so indexes
	// derived from it are disjoint. The stores atomic ops perform are
	// synchronized by definition and not judged here.
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" {
		for _, arg := range call.Args {
			a.eval(arg)
		}
		name := fn.Name()
		if strings.HasPrefix(name, "Add") || strings.HasPrefix(name, "Swap") ||
			strings.HasPrefix(name, "CompareAndSwap") {
			out := opaque()
			if len(out) > 0 {
				out[0].deriv |= DerivThread
			}
			return out
		}
		return opaque()
	}

	// Evaluate arguments (receiver first for methods).
	var args []value
	if sel, ok := fun.(*ast.SelectorExpr); ok && fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			args = append(args, a.eval(sel.X))
		}
	}
	for _, arg := range call.Args {
		args = append(args, a.eval(arg))
	}

	if w := a.prog.asmWrites[fn]; w != 0 {
		// An assembly function: a store anywhere in each window its
		// //asm:writes line names, as clear would make.
		for p, v := range args {
			if w.has(p) {
				a.store(call.Pos(), a.derefRegion(v.reg), value{}, false, true)
			}
		}
		return pad(opaque())
	}
	if fn == nil || a.prog.decls[fn] == nil {
		// Dynamic, interface, stdlib, or external call: opaque.
		if a.summaryMode {
			a.sawOpaque = true
		}
		return pad(opaque())
	}

	s := a.prog.summarize(fn, a.depth+1)
	return pad(a.applySummary(call, fn, s, args))
}

func (a *analysis) evalBuiltin(name string, call *ast.CallExpr) []value {
	evalArgs := func() []value {
		out := make([]value, len(call.Args))
		for i, arg := range call.Args {
			out[i] = a.eval(arg)
		}
		return out
	}
	switch name {
	case "len", "cap":
		vs := evalArgs()
		if len(vs) == 1 {
			// len of a disjoint window is thread-specific data.
			return []value{{deriv: vs[0].deriv | vs[0].reg.offDeriv, deps: vs[0].deps | vs[0].reg.offDeps}}
		}
		return []value{{}}
	case "make", "new":
		for _, arg := range call.Args[1:] {
			a.eval(arg)
		}
		return []value{{reg: region{kind: regFresh}}}
	case "append":
		vs := evalArgs()
		out := value{}
		for _, v := range vs {
			out = out.join(v)
		}
		return []value{out}
	case "copy":
		vs := evalArgs()
		if len(vs) == 2 {
			// copy overwrites dst's whole window: a bare store.
			a.store(call.Pos(), a.derefRegion(vs[0].reg), value{}, false, true)
			return []value{{}}
		}
		return []value{{}}
	case "delete":
		vs := evalArgs()
		if len(vs) == 2 {
			a.store(call.Pos(), a.derefRegion(vs[0].reg), vs[1], true, false)
		}
		return []value{{}}
	case "min", "max":
		vs := evalArgs()
		out := value{}
		for _, v := range vs {
			out.deriv |= v.scalarDeriv()
			out.deps |= v.scalarDeps()
		}
		return []value{out}
	case "clear":
		vs := evalArgs()
		if len(vs) == 1 {
			a.store(call.Pos(), a.derefRegion(vs[0].reg), value{}, false, true)
		}
		return []value{{}}
	default:
		evalArgs()
		return []value{{}}
	}
}

// callLit invokes a local closure: argument values join into the
// literal's parameter objects (picked up on the next fixpoint pass — the
// body is walked at its definition site) and the accumulated return
// values come back.
func (a *analysis) callLit(lit *ast.FuncLit, call *ast.CallExpr) []value {
	i := 0
	var params []types.Object
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			params = append(params, a.info.Defs[name])
		}
	}
	for _, arg := range call.Args {
		v := a.eval(arg)
		if i < len(params) && params[i] != nil {
			a.setEnv(params[i], v)
		}
		i++
	}
	a.walkLit(lit)
	return a.litRets[lit]
}

// applySummary substitutes call-site argument facts into a callee summary:
// resolving store targets through argument regions, discharging stores
// whose index becomes derived, propagating the rest (as findings in entry
// mode, as composed storeRecs in summary mode), and rebuilding result
// values.
func (a *analysis) applySummary(call *ast.CallExpr, fn *types.Func, s *summary, args []value) []value {
	if s.truncated && a.summaryMode {
		a.sawOpaque = true
	}
	argv := func(p int) value {
		if p >= 0 && p < len(args) {
			return args[p]
		}
		return value{}
	}
	for _, st := range s.stores {
		global := st.global
		var base paramMask
		hit := st.global
		d := st.deriv
		var deps paramMask
		for p := 0; p < len(args) && p < 32; p++ {
			if !st.targets.has(p) {
				continue
			}
			r := argv(p).reg
			switch r.kind {
			case regView:
				if r.disjoint() {
					continue // store lands inside a thread-disjoint window
				}
				base |= r.base
				global = global || r.global
				deps |= r.offDeps // window may become disjoint one level up
				hit = hit || r.global || r.base != 0 || r.offDeps != 0
			case regShared:
				global = true
				hit = true
			}
			// fresh/unknown/none targets: the store lands in caller-local
			// or unjudgeable memory — skip.
		}
		if !hit {
			continue
		}
		for p := 0; p < len(args) && p < 32; p++ {
			if !st.deps.has(p) {
				continue
			}
			v := argv(p)
			d |= v.scalarDeriv()
			deps |= v.scalarDeps()
		}
		if d.derived() {
			continue
		}
		via := chainJoin(fn.Name(), st.via)
		if a.summaryMode {
			if base == 0 && !global {
				continue
			}
			a.stores = append(a.stores, storeRec{
				pos: st.pos, targets: base, global: global,
				deriv: d, deps: deps, isMap: st.isMap, bare: st.bare, via: via,
			})
			continue
		}
		if !a.checking {
			continue
		}
		a.reportStore(a.reportPos(st.pos, call.Pos()), st.isMap, st.bare, via)
	}

	out := make([]value, len(s.ret))
	for i, rv := range s.ret {
		nv := value{deriv: rv.deriv}
		for p := 0; p < len(args) && p < 32; p++ {
			if !rv.deps.has(p) {
				continue
			}
			v := argv(p)
			nv.deriv |= v.scalarDeriv()
			nv.deps |= v.scalarDeps()
		}
		nv.reg = substRegion(rv.reg, args)
		out[i] = nv
	}
	return out
}

// substRegion rebuilds a summarized result region in the caller's frame.
func substRegion(r region, args []value) region {
	if r.kind != regView {
		return r
	}
	out := region{kind: regView, global: r.global, offDeriv: r.offDeriv}
	for p := 0; p < len(args) && p < 32; p++ {
		if !r.offDeps.has(p) {
			continue
		}
		v := args[p]
		out.offDeriv |= v.scalarDeriv()
		out.offDeps |= v.scalarDeps()
	}
	sawUnknown := false
	for p := 0; p < len(args) && p < 32; p++ {
		if !r.base.has(p) {
			continue
		}
		ar := args[p].reg
		switch ar.kind {
		case regShared:
			out.global = true
		case regView:
			out.base |= ar.base
			out.global = out.global || ar.global
			// A window inside a thread-disjoint window is itself disjoint.
			out.offDeriv |= ar.offDeriv
			out.offDeps |= ar.offDeps
		case regUnknown:
			sawUnknown = true
		}
	}
	if out.base == 0 && !out.global {
		if sawUnknown {
			return region{kind: regUnknown}
		}
		return region{kind: regFresh}
	}
	return out
}
