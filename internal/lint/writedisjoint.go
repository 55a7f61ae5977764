package lint

import (
	"stef/internal/lint/flow"
)

// parPkgPath is the import path of the parallel-loop helpers.
const parPkgPath = "stef/internal/par"

// flowCacheKey is the Pass.Cache slot holding the shared flow.Program.
const flowCacheKey = "flow.Program"

// WriteDisjoint is the static half of the paper's Algorithm 3 correctness
// argument: every store a thread issues from a par.Do/par.Blocks callback
// must land in its own partition of the output, in thread-private scratch,
// or in a replicated boundary row. Unlike the old par-safety analyzer it
// follows the stores interprocedurally — through the kernel entry points
// (RootMTTKRPWith, ModeMTTKRPWith), Scratch accessors, and any other
// module-local call chain up to a bounded depth — by composing per-function
// summaries over a derivation lattice (see stef/internal/lint/flow).
var WriteDisjoint = &Analyzer{
	Name:      "write-disjoint",
	Doc:       "prove stores reachable from par.Do/par.Blocks callbacks are thread-disjoint (interprocedural)",
	NeedTypes: true,
	Run:       runWriteDisjoint,
}

func runWriteDisjoint(pass *Pass) {
	prog, ok := pass.Cache[flowCacheKey].(*flow.Program)
	if !ok {
		var fps []*flow.Package
		for _, pkg := range pass.All {
			if pkg.Types == nil || pkg.Info == nil {
				continue
			}
			fps = append(fps, &flow.Package{
				Path:  pkg.Path,
				Files: pkg.Files,
				Types: pkg.Types,
				Info:  pkg.Info,
			})
		}
		prog = flow.NewProgram(pass.Fset, fps, flow.Config{ParPath: parPkgPath})
		pass.Cache[flowCacheKey] = prog
	}
	for _, f := range prog.AsmDirectiveFindings(pass.PkgPath) {
		pass.Reportf(f.Pos, "%s", f.Message)
	}
	for _, e := range prog.Entries(pass.PkgPath) {
		for _, f := range prog.CheckEntry(e) {
			pass.Reportf(f.Pos, "%s", f.Message)
		}
	}
}
