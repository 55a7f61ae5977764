package flow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

const parSrc = `package par

func Do(t int, fn func(th int)) {
	for i := 0; i < t; i++ {
		fn(i)
	}
}

func Blocks(n, t int, fn func(th, lo, hi int)) {
	fn(0, 0, n)
}
`

const testParPath = "test/par"

// loadTest typechecks a synthetic two-package program (the test source
// plus a stand-in par package) and returns a Program over it.
func loadTest(t *testing.T, src string, cfg Config) *Program {
	t.Helper()
	fset := token.NewFileSet()
	parse := func(name, src string) *ast.File {
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		return f
	}
	check := func(path string, files []*ast.File, imp types.Importer) *Package {
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(path, fset, files, info)
		if err != nil {
			t.Fatalf("typecheck %s: %v", path, err)
		}
		return &Package{Path: path, Files: files, Types: tpkg, Info: info}
	}
	parPkg := check(testParPath, []*ast.File{parse("par.go", parSrc)}, nil)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if path == testParPath {
			return parPkg.Types, nil
		}
		return nil, &importError{path}
	})
	main := check("test/main", []*ast.File{parse("main.go", src)}, imp)
	cfg.ParPath = testParPath
	return NewProgram(fset, []*Package{main, parPkg}, cfg)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

type importError struct{ path string }

func (e *importError) Error() string { return "no such package: " + e.path }

func findings(p *Program) []Finding {
	var out []Finding
	for _, e := range p.Entries("test/main") {
		out = append(out, p.CheckEntry(e)...)
	}
	return out
}

const chainSrc = `package main

import "test/par"

func h4(dst []float64, i int) { dst[i] = 1 }
func h3(dst []float64, i int) { h4(dst, i) }
func h2(dst []float64, i int) { h3(dst, i) }
func h1(dst []float64, i int) { h2(dst, i) }

func run(t, k int, out []float64) {
	par.Do(t, func(th int) {
		h1(out, k)  // unsafe: k is thread-independent, four calls deep
		h1(out, th) // safe: thread id flows down the same chain
	})
}
`

func TestDeepChainFlagged(t *testing.T) {
	p := loadTest(t, chainSrc, Config{})
	fs := findings(p)
	if len(fs) != 1 {
		t.Fatalf("want exactly 1 finding, got %d: %v", len(fs), fs)
	}
	if !strings.Contains(fs[0].Message, "h1 → h2 → h3 → h4") {
		t.Errorf("finding lacks call chain: %s", fs[0].Message)
	}
}

func TestDepthBoundTruncatesToSilence(t *testing.T) {
	// With the chain longer than MaxCallDepth the callee is opaque: the
	// analysis must go silent (err toward missing a bug), never invent a
	// finding it cannot attribute.
	p := loadTest(t, chainSrc, Config{MaxCallDepth: 2})
	if fs := findings(p); len(fs) != 0 {
		t.Fatalf("want no findings past the depth bound, got %v", fs)
	}
}

const wrapperSrc = `package main

import "test/par"

func inner(t int, fn func(th int)) { par.Do(t, fn) }
func outer(t int, fn func(th int)) { inner(t, fn) }

func run(t int, out []float64) {
	outer(t, func(th int) {
		out[0] = 1 // unsafe
		out[th] = 1
	})
}
`

func TestWrapperOfWrapperDetected(t *testing.T) {
	p := loadTest(t, wrapperSrc, Config{})
	fs := findings(p)
	if len(fs) != 1 {
		t.Fatalf("want exactly 1 finding through the double wrapper, got %d: %v", len(fs), fs)
	}
}

const partitionSrc = `package main

import "test/par"

type partition struct {
	start [][]int64
}

func run(t int, p *partition, out []float64) {
	par.Do(t, func(th int) {
		lo, hi := p.start[th][0], p.start[th+1][0]
		for n := lo; n < hi; n++ {
			out[n] = 0 // safe: bounds read through a thread-indexed window
		}
	})
}
`

func TestPartitionBoundsDerived(t *testing.T) {
	p := loadTest(t, partitionSrc, Config{})
	if fs := findings(p); len(fs) != 0 {
		t.Fatalf("partition-bounded loop misflagged: %v", fs)
	}
}

const asmSrc = `package main

import "test/par"

// fill is implemented in assembly and stores through dst only.
//
//asm:writes dst
func fill(dst, src []float64)

// peek is implemented in assembly and declares no stores.
func peek(dst []float64)

// poke misspells its parameter.
//
//asm:writes dts
func poke(dst []float64)

func helper(buf, in []float64) { fill(buf, in) }

func run(t, r int, slab, shared, in []float64) {
	par.Do(t, func(th int) {
		fill(slab[th*r:(th+1)*r], shared)  // safe: src is only read
		helper(slab[th*r:(th+1)*r], shared) // safe through a Go caller too
		fill(shared[0:r], in)               // unsafe: every thread's window
		peek(shared)                        // opaque: no //asm:writes line
	})
}
`

// TestAsmWritesDirective holds a call to an assembly function to the
// stores its //asm:writes line declares: a store anywhere in a named
// argument's window, judged like clear; unnamed arguments and undeclared
// functions stay opaque, and a name that is no parameter is a finding.
func TestAsmWritesDirective(t *testing.T) {
	p := loadTest(t, asmSrc, Config{})
	fs := findings(p)
	if len(fs) != 1 {
		t.Fatalf("want exactly 1 finding, for the shared window, got %d: %v", len(fs), fs)
	}
	if line := p.fset.Position(fs[0].Pos).Line; line != 24 {
		t.Errorf("finding at line %d, want 24 (fill into shared): %s", line, fs[0].Message)
	}
	typos := p.AsmDirectiveFindings("test/main")
	if len(typos) != 1 || !strings.Contains(typos[0].Message, `"dts", which is not a parameter of poke`) {
		t.Fatalf("want one finding for the misspelled //asm:writes name, got %v", typos)
	}
}
