// Package flow implements the interprocedural dataflow behind the
// write-disjoint analyzer: the static half of the paper's Algorithm 3
// correctness argument. Starting from every function literal passed to
// par.Do/par.Blocks (or to a module-local wrapper that forwards its
// callback, detected from the callgraph), it tracks a derivation lattice —
// ThreadLocal / PartitionDerived / Shared / Unknown, see Deriv — through
// assignments, loads, reslices and calls, and reports any store to captured
// or package-level memory whose index (or window offset) is not provably
// derived from the thread id or the partition bounds.
//
// Calls to module-local functions are resolved through per-function
// summaries: the stores a callee performs, expressed as (target parameter,
// index derivation as a function of the caller's arguments), plus the
// region of its results. Summaries compose, so a store three frames below
// the callback is still attributed to the callback's arguments; the chain
// is bounded by Config.MaxCallDepth, beyond which calls are treated as
// opaque (no stores, unknown results) — the analysis errs toward silence,
// never toward noise, on truncation.
//
// An assembly function has no Go body to summarize. Its Go declaration
// may name the parameters the assembly stores through in an
// `//asm:writes p q` line of its doc comment; a call then counts as a
// store anywhere in those arguments' windows. Without the line the call
// is opaque.
package flow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Config parameterizes a Program.
type Config struct {
	// ParPath is the import path of the parallel-loop helpers whose Do
	// and Blocks functions root the analysis. Empty selects the module's
	// own par package.
	ParPath string
	// MaxCallDepth bounds interprocedural summary chains; 0 selects
	// DefaultMaxCallDepth.
	MaxCallDepth int
}

// DefaultMaxCallDepth is deep enough for every chain in this module
// (callback → *Thread kernel → Scratch.vec/Matrix.Row) with headroom for
// one more hop, while keeping summary blowup bounded.
const DefaultMaxCallDepth = 4

const defaultParPath = "stef/internal/par"

// Package is one typechecked package the Program can see.
type Package struct {
	Path  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program holds the cross-package function index and memoized summaries
// for one analysis run.
type Program struct {
	fset *token.FileSet
	cfg  Config
	pkgs []*Package

	decls      map[*types.Func]*funcSource
	sums       map[*types.Func]*summary
	inProgress map[*types.Func]bool
	// wrappers maps a module-local function to the call-argument
	// positions at which it forwards a callback to par.Do/par.Blocks.
	wrappers map[*types.Func]paramMask
	// fileOf maps a filename to the package that owns it, for deciding
	// where an interprocedural finding can be reported.
	fileOf map[string]*Package
	// asmWrites maps a module-local assembly function to the parameters
	// its //asm:writes line names; asmTypos holds the names that match no
	// parameter, by package.
	asmWrites map[*types.Func]paramMask
	asmTypos  map[string][]Finding
}

type funcSource struct {
	decl *ast.FuncDecl
	pkg  *Package
}

// Finding is one unprovable store.
type Finding struct {
	Pos     token.Pos
	Message string
}

// Entry is one parallel callback to check: a function literal (or named
// function) passed at a callback position of par.Do/par.Blocks or a
// wrapper.
type Entry struct {
	Lit  *ast.FuncLit  // nil when a named function is passed instead
	Decl *ast.FuncDecl // set when a named function is passed
	Call *ast.CallExpr // the launching call, for reporting
	pkg  *Package
}

// NewProgram indexes the given typechecked packages. Packages that failed
// to typecheck must be omitted by the caller.
func NewProgram(fset *token.FileSet, pkgs []*Package, cfg Config) *Program {
	if cfg.ParPath == "" {
		cfg.ParPath = defaultParPath
	}
	if cfg.MaxCallDepth <= 0 {
		cfg.MaxCallDepth = DefaultMaxCallDepth
	}
	p := &Program{
		fset:       fset,
		cfg:        cfg,
		pkgs:       pkgs,
		decls:      make(map[*types.Func]*funcSource),
		sums:       make(map[*types.Func]*summary),
		inProgress: make(map[*types.Func]bool),
		wrappers:   make(map[*types.Func]paramMask),
		fileOf:     make(map[string]*Package),
		asmWrites:  make(map[*types.Func]paramMask),
		asmTypos:   make(map[string][]Finding),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			p.fileOf[fset.Position(f.Pos()).Filename] = pkg
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				if fd.Body == nil {
					w, typos := asmWrites(fd)
					if w != 0 {
						p.asmWrites[fn] = w
					}
					p.asmTypos[pkg.Path] = append(p.asmTypos[pkg.Path], typos...)
					continue
				}
				p.decls[fn] = &funcSource{decl: fd, pkg: pkg}
			}
		}
	}
	p.findWrappers()
	return p
}

// asmWrites returns the parameters named by the //asm:writes lines of a
// bodiless declaration's doc comment, and a finding for each name that
// matches no parameter.
func asmWrites(fd *ast.FuncDecl) (paramMask, []Finding) {
	if fd.Doc == nil || fd.Recv != nil {
		return 0, nil
	}
	params := map[string]int{}
	i := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			params[name.Name] = i
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
	var w paramMask
	var typos []Finding
	for _, c := range fd.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//asm:writes ")
		if !ok {
			continue
		}
		for _, n := range strings.Fields(rest) {
			if i, ok := params[n]; ok {
				w |= pbit(i)
			} else {
				typos = append(typos, Finding{Pos: c.Pos(), Message: fmt.Sprintf("//asm:writes names %q, which is not a parameter of %s", n, fd.Name.Name)})
			}
		}
	}
	return w, typos
}

// AsmDirectiveFindings returns the //asm:writes names in package pkgPath
// that match no parameter of their declaration.
func (p *Program) AsmDirectiveFindings(pkgPath string) []Finding { return p.asmTypos[pkgPath] }

// parCallbackPos returns the callback argument positions of fn: the
// built-in roots par.Do (position 1) and par.Blocks (position 2), plus
// every wrapper discovered from the callgraph.
func (p *Program) parCallbackPos(fn *types.Func) paramMask {
	if fn == nil {
		return 0
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == p.cfg.ParPath {
		switch fn.Name() {
		case "Do":
			return pbit(1)
		case "Blocks":
			return pbit(2)
		}
	}
	return p.wrappers[fn]
}

// findWrappers derives callback-forwarding wrappers from the callgraph to
// fixpoint: g is a wrapper at parameter j when g's body passes its own
// parameter j at a callback position of par.Do/par.Blocks or of another
// wrapper. Deriving this instead of keeping a name list means renaming or
// deleting a wrapper can never silently disable the check.
func (p *Program) findWrappers() {
	// paramIndex[fn] maps each ordinary (non-receiver) parameter object
	// of fn to its call-argument position.
	type declParams struct {
		fn    *types.Func
		body  *ast.FuncDecl
		pkg   *Package
		byObj map[types.Object]int
	}
	var all []declParams
	for fn, src := range p.decls {
		dp := declParams{fn: fn, body: src.decl, pkg: src.pkg, byObj: make(map[types.Object]int)}
		i := 0
		for _, field := range src.decl.Type.Params.List {
			for _, name := range field.Names {
				if obj := src.pkg.Info.Defs[name]; obj != nil {
					dp.byObj[obj] = i
				}
				i++
			}
			if len(field.Names) == 0 {
				i++
			}
		}
		all = append(all, dp)
	}
	for changed := true; changed; {
		changed = false
		for _, dp := range all {
			ast.Inspect(dp.body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeFunc(dp.pkg.Info, call)
				positions := p.parCallbackPos(callee)
				if positions == 0 {
					return true
				}
				for i, arg := range call.Args {
					if !positions.has(i) {
						continue
					}
					id, ok := ast.Unparen(arg).(*ast.Ident)
					if !ok {
						continue
					}
					obj := dp.pkg.Info.Uses[id]
					if j, isParam := dp.byObj[obj]; isParam && !p.wrappers[dp.fn].has(j) {
						p.wrappers[dp.fn] |= pbit(j)
						changed = true
					}
				}
				return true
			})
		}
	}
}

// calleeFunc resolves the *types.Func a call statically invokes, or nil
// for builtins, closures, and dynamic calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// Entries returns the parallel callbacks launched from the package with
// the given import path, in source order.
func (p *Program) Entries(pkgPath string) []Entry {
	var pkg *Package
	for _, cand := range p.pkgs {
		if cand.Path == pkgPath {
			pkg = cand
			break
		}
	}
	if pkg == nil {
		return nil
	}
	var entries []Entry
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			positions := p.parCallbackPos(calleeFunc(pkg.Info, call))
			if positions == 0 {
				return true
			}
			for i, arg := range call.Args {
				if !positions.has(i) {
					continue
				}
				switch a := ast.Unparen(arg).(type) {
				case *ast.FuncLit:
					entries = append(entries, Entry{Lit: a, Call: call, pkg: pkg})
				case *ast.Ident:
					if fn, ok := pkg.Info.Uses[a].(*types.Func); ok {
						if src := p.decls[fn]; src != nil {
							entries = append(entries, Entry{Decl: src.decl, Call: call, pkg: pkg})
						}
					}
				}
			}
			return true
		})
	}
	return entries
}

// CheckEntry analyzes one callback and returns its unprovable stores,
// deduplicated and ordered by position.
func (p *Program) CheckEntry(e Entry) []Finding {
	a := &analysis{
		prog:  p,
		pkg:   e.pkg,
		info:  e.pkg.Info,
		entry: &e,
	}
	var typ *ast.FuncType
	var body *ast.BlockStmt
	if e.Lit != nil {
		a.owner = e.Lit
		typ, body = e.Lit.Type, e.Lit.Body
	} else {
		a.owner = e.Decl
		typ, body = e.Decl.Type, e.Decl.Body
	}
	a.init()
	// Every callback parameter is thread-derived: the thread id and the
	// block bounds are exactly the values par.Do/par.Blocks make
	// thread-unique.
	for _, field := range typ.Params.List {
		for _, name := range field.Names {
			if obj := a.info.Defs[name]; obj != nil {
				a.setEnv(obj, value{deriv: DerivThread})
			}
		}
	}
	a.fixpoint(body)
	a.checking = true
	a.block(body)

	seen := make(map[string]bool)
	var out []Finding
	for _, f := range a.findings {
		key := fmt.Sprintf("%d:%s", f.Pos, f.Message)
		if !seen[key] {
			seen[key] = true
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// reportPos picks where a finding about a store at storePos may be
// reported: at the store itself when it lives in the entry's own package
// (so a //lint:allow next to the store can cover it), else at the
// entry-level call that reaches it.
func (a *analysis) reportPos(storePos token.Pos, fallback token.Pos) token.Pos {
	file := a.prog.fset.Position(storePos).Filename
	if a.prog.fileOf[file] == a.pkg {
		return storePos
	}
	return fallback
}

func viaSuffix(via string) string {
	if via == "" {
		return ""
	}
	return " (via " + via + ")"
}

func chainJoin(head, tail string) string {
	if tail == "" {
		return head
	}
	return head + " → " + tail
}
