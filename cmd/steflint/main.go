// Command steflint runs the repo-native static analyzers over the module:
//
//	hotpath-alloc   no allocations inside for loops of the hot packages
//	write-disjoint  stores reachable from par.Do/par.Blocks callbacks are
//	                provably thread-disjoint (interprocedural dataflow)
//	idx-width       index/offset arithmetic is evaluated at a width that
//	                holds its scale class (//idx: annotations, interprocedural)
//	lifetime        releasable resources (mmap-backed trees, pooled solver
//	                workspaces, csf level views) are never used after
//	                release, never escape their Acquire→Release window,
//	                and never leak on error paths (//life: annotations,
//	                interprocedural)
//	engine-purity   Engine Compute implementations mutate only their Workspace
//	panic-prefix    panic messages in internal/... start with the package name
//	no-deps         imports resolve to the stdlib or stef/... only
//	stale-allow     //lint:allow, //gate:allow, //idx: and //life:
//	                directives must suppress or declare something and spell
//	                their analyzer/gate-kind/facet/lifetime vocabulary
//	                correctly
//
// With -gates it instead runs the compiler-diagnostic performance gates
// (internal/lint/gates): the hot packages are rebuilt with escape-analysis,
// bounds-check and assembly (-S) diagnostics enabled in one compile; the
// manifest's hot functions must stay free of in-loop escapes and bounds
// checks, the manifest's shape assertions certify the emitted machine code
// (call/bounds/FP-multiply/frame-reload budgets per function), and
// everything else is ratcheted against the committed baseline, which
// carries a toolchain stamp so counts are never compared across compilers.
//
// Usage:
//
//	steflint [-run a,b] [-list] [-json] [packages]
//	steflint -gates [-write-baseline]
//
// With no arguments (or "./...") every package in the module is analyzed.
// Arguments name package directories relative to the working directory.
// With -json, findings are emitted to stdout as a JSON array of
// {file, line, analyzer, message} objects with module-root-relative file
// paths, for machine consumption (e.g. CI annotations).
//
// Exit status: 0 clean, 1 findings, 2 usage error, load failure, or a
// package that failed to typecheck (reported as an analyzer="typecheck"
// pseudo-finding so -json consumers see it too).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"stef/internal/lint"
	"stef/internal/lint/gates"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("steflint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list available analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array of {file, line, analyzer, message}")
	runNames := fs.String("run", "", "comma-separated analyzers to run (default: all)")
	gatesMode := fs.Bool("gates", false, "run the compiler-diagnostic performance gates")
	writeBaseline := fs.Bool("write-baseline", false, "with -gates: rewrite the committed baseline to the observed counts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeBaseline && !*gatesMode {
		fmt.Fprintln(stderr, "steflint: -write-baseline requires -gates")
		return 2
	}
	if *gatesMode {
		return runGates(*writeBaseline, stdout, stderr)
	}
	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers := lint.All()
	if *runNames != "" {
		var err error
		analyzers, err = lint.ByName(*runNames)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "steflint:", err)
		return 2
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "steflint:", err)
		return 2
	}

	var pkgs []*lint.Package
	patterns := fs.Args()
	wholeModule := len(patterns) == 0
	for _, p := range patterns {
		if p == "./..." || p == "..." {
			wholeModule = true
		}
	}
	if wholeModule {
		pkgs, err = loader.LoadAll()
		if err != nil {
			fmt.Fprintln(stderr, "steflint:", err)
			return 2
		}
	} else {
		for _, p := range patterns {
			pkg, err := loader.LoadDir(p)
			if err != nil {
				fmt.Fprintln(stderr, "steflint:", err)
				return 2
			}
			pkgs = append(pkgs, pkg)
		}
	}

	findings := lint.Run(pkgs, analyzers)
	if *jsonOut {
		root, _, rootErr := gates.FindModuleRoot(cwd)
		if rootErr != nil {
			root = "" // fall back to the loader's absolute paths
		}
		if err := writeJSON(stdout, root, findings); err != nil {
			fmt.Fprintln(stderr, "steflint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	typeErrs := 0
	for _, f := range findings {
		if f.Analyzer == "typecheck" {
			typeErrs++
		}
	}
	if typeErrs > 0 {
		fmt.Fprintf(stderr, "steflint: %d package(s) failed to typecheck\n", typeErrs)
		return 2
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "steflint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		return 1
	}
	return 0
}

// jsonFinding is the machine-readable finding shape emitted by -json.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// writeJSON emits findings as a JSON array (always an array, [] when
// clean) with file paths relative to the module root where possible.
func writeJSON(stdout *os.File, root string, findings []lint.Finding) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File:     relPath(root, f.Pos.Filename),
			Line:     f.Pos.Line,
			Analyzer: f.Analyzer,
			Message:  f.Message,
		})
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// relPath rewrites file as a slash-separated path relative to root when it
// lies inside it; paths outside the module (or an empty root) pass through.
func relPath(root, file string) string {
	if root == "" || file == "" {
		return file
	}
	r, err := filepath.Rel(root, file)
	if err != nil || strings.HasPrefix(r, "..") {
		return file
	}
	return filepath.ToSlash(r)
}

// runGates executes the compiler-diagnostic gates over the module
// containing the working directory.
func runGates(writeBaseline bool, stdout, stderr *os.File) int {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "steflint:", err)
		return 2
	}
	root, _, err := gates.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "steflint:", err)
		return 2
	}
	basePath := filepath.Join(root, filepath.FromSlash(gates.BaselineFile))
	var baseline *gates.Baseline
	if !writeBaseline {
		baseline, err = gates.LoadBaseline(basePath)
		if err != nil {
			fmt.Fprintf(stderr, "steflint: %v (run `steflint -gates -write-baseline` to create the baseline)\n", err)
			return 2
		}
	}
	res, err := gates.Check(root, gates.Default(), baseline)
	if err != nil {
		fmt.Fprintln(stderr, "steflint:", err)
		return 2
	}
	if writeBaseline {
		if err := os.WriteFile(basePath, gates.FormatBaseline(res.Toolchain, res.Counts), 0o644); err != nil {
			fmt.Fprintln(stderr, "steflint:", err)
			return 2
		}
		fmt.Fprintf(stdout, "steflint: wrote %s (%d baseline entries, toolchain %s)\n", gates.BaselineFile, len(res.Counts), res.Toolchain)
	}
	for _, v := range res.Violations {
		fmt.Fprintln(stdout, v)
	}
	for _, v := range res.ShapeViolations {
		fmt.Fprintln(stdout, v)
	}
	for _, m := range res.Missing {
		fmt.Fprintln(stdout, m)
	}
	for _, s := range res.Stale {
		fmt.Fprintln(stdout, s)
	}
	toolchainStale := !writeBaseline && res.ToolchainStale()
	if toolchainStale {
		was := res.BaselineToolchain
		if was == "" {
			was = "unstamped"
		}
		fmt.Fprintf(stdout, "baseline stale: toolchain changed (baseline %s, current %s); diagnostic counts are incomparable across compilers — review and run `steflint -gates -write-baseline`\n",
			was, res.Toolchain)
	}
	if !writeBaseline {
		for _, d := range res.Regressions {
			fmt.Fprintf(stdout, "regression vs baseline: %s\n", d)
		}
		for _, d := range res.Improvements {
			fmt.Fprintf(stdout, "improvement vs baseline: %s (tighten with -gates -write-baseline)\n", d)
		}
	}
	nfail := len(res.Violations) + len(res.ShapeViolations) + len(res.Missing) + len(res.Stale)
	if !writeBaseline {
		nfail += len(res.Regressions)
	}
	if toolchainStale {
		nfail++
	}
	if nfail > 0 {
		fmt.Fprintf(stderr, "steflint: gates failed: %d violation(s), %d shape violation(s), %d missing hot function(s), %d stale allow(s), %d regression(s), toolchain stale: %v\n",
			len(res.Violations), len(res.ShapeViolations), len(res.Missing), len(res.Stale), len(res.Regressions), toolchainStale)
		return 1
	}
	return 0
}
