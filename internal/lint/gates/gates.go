// Package gates enforces compiler-diagnostic performance gates over the
// hot MTTKRP packages: it rebuilds them with the Go compiler's escape
// analysis (-m=1) and bounds-check-elimination debugging (-d=ssa/check_bce)
// enabled, parses the emitted diagnostics, and checks them against a
// declarative manifest of hot functions (manifest.go) in which heap
// escapes and bounds checks inside loop bodies are forbidden.
//
// steflint's AST analyzers (internal/lint) catch allocation *patterns*;
// this package gates on what the compiler actually emits, so a regression
// that survives inlining or defeats the prove pass is caught even when the
// source looks innocent.
//
// Individual diagnostics are suppressed with escape comments mirroring
// //lint:allow:
//
//	//gate:allow <kind>[,<kind>] <reason>
//	//gate:allow <reason>
//
// placed on the offending line or the line directly above it. <kind> is
// "escape" or "bounds"; when the first word is not a kind the directive
// allows both. Directives that suppress nothing are themselves findings,
// so stale allows rot visibly rather than silently.
//
// Diagnostics outside the manifest's hot functions (or inside them but
// outside any loop) are not forbidden, only *ratcheted*: their per-function
// counts are compared against the committed baseline
// (internal/lint/gates/baseline.txt) and may only go down. Regenerate the
// baseline after an improvement with `steflint -gates -write-baseline`.
package gates

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Kind classifies a compiler diagnostic.
type Kind string

const (
	// KindEscape covers "escapes to heap" and "moved to heap" diagnostics.
	KindEscape Kind = "escape"
	// KindBounds covers "Found IsInBounds" / "Found IsSliceInBounds".
	KindBounds Kind = "bounds"
	// KindShape covers code-shape assertion failures (shape.go). Unlike the
	// other kinds it is only suppressible by a directive explicitly naming
	// it on the function declaration, never by a blanket reason-only allow.
	KindShape Kind = "shape"
)

// ValidKind reports whether s names a diagnostic kind a //gate:allow
// directive can suppress. The lint stale-allow analyzer uses it to flag
// misspelled kind lists, which this package's parser would otherwise
// silently read as reason text (widening the directive to all kinds).
func ValidKind(s string) bool {
	for _, k := range AllKinds() {
		if s == string(k) {
			return true
		}
	}
	return false
}

// AllKinds lists every suppressible diagnostic kind. The stale-allow
// analyzer uses it both to render error messages and to catch near-miss
// misspellings ("shap") that the directive parser would read as reason
// text.
func AllKinds() []Kind {
	return []Kind{KindEscape, KindBounds, KindShape}
}

// Diag is one parsed compiler diagnostic.
type Diag struct {
	// File is the source path relative to the module root, slash-separated.
	File string
	Line int
	Col  int
	Kind Kind
	// Text is the compiler's message, e.g. "Found IsInBounds" or
	// "make([]float64, r) escapes to heap".
	Text string
}

func (d Diag) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Kind, d.Text)
}

// Violation is a forbidden diagnostic: inside a loop body of a
// manifest-listed hot function, with no //gate:allow covering it.
type Violation struct {
	Diag Diag
	// Func is the qualified hot function, e.g. "kernels.rootGeneric".
	Func string
	Rule Rule
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: in hot function %s: %s in a loop body (forbidden by the gates manifest)", posOf(v.Diag), v.Func, v.Diag.Text)
}

// Delta is a baseline comparison for one (function, kind) key.
type Delta struct {
	Key  string // "<func>\t<kind>"
	Got  int
	Base int
}

func (d Delta) String() string {
	fn, kind, _ := strings.Cut(d.Key, "\t")
	return fmt.Sprintf("%s: %d %s diagnostic(s), baseline allows %d", fn, d.Got, kind, d.Base)
}

// StaleAllow is a //gate:allow directive that suppressed no diagnostic.
type StaleAllow struct {
	File string
	Line int
}

func (s StaleAllow) String() string {
	return fmt.Sprintf("%s:%d: //gate:allow suppresses no compiler diagnostic (stale)", s.File, s.Line)
}

// Result is the outcome of one gates run.
type Result struct {
	// Violations are hard failures: in-loop diagnostics in hot functions.
	Violations []Violation
	// Regressions are baseline-tracked keys whose count grew.
	Regressions []Delta
	// Improvements are baseline-tracked keys whose count shrank; the
	// baseline should be regenerated to lock them in.
	Improvements []Delta
	// Stale lists //gate:allow directives that suppressed nothing.
	Stale []StaleAllow
	// ShapeViolations are failed code-shape assertions (shape.go).
	ShapeViolations []ShapeViolation
	// Missing lists the manifest rules whose function no gated file
	// declares: a hot function that was renamed or deleted would
	// otherwise leave the gates without a word.
	Missing []MissingFunc
	// Toolchain is the observed compiler version (`go env GOVERSION`).
	Toolchain string
	// BaselineToolchain is the stamp read from the baseline file ("" when
	// the baseline carries no stamp).
	BaselineToolchain string
	// Counts holds the observed baseline-tracked counts (the content a
	// -write-baseline run would commit).
	Counts map[string]int
	// Diags is every deduplicated diagnostic the compiler emitted for the
	// gated packages, for debugging and tests.
	Diags []Diag
}

// ToolchainStale reports whether the baseline was written by a different
// Go toolchain than the one that just compiled. Diagnostic and instruction
// counts are compiler-version artifacts, so on drift the ratchet deltas are
// suppressed (they would be noise) and this single distinct finding asks
// for a reviewed `steflint -gates -write-baseline` instead.
func (r *Result) ToolchainStale() bool {
	return r.BaselineToolchain != r.Toolchain
}

// OK reports whether the gate passes: no violations, no shape violations,
// no regressions, no stale allows, and a baseline stamped by the current
// toolchain. Improvements do not fail the gate.
func (r *Result) OK() bool {
	return len(r.Violations) == 0 && len(r.Regressions) == 0 && len(r.Stale) == 0 &&
		len(r.ShapeViolations) == 0 && len(r.Missing) == 0 && !r.ToolchainStale()
}

// MissingFunc is a manifest rule whose function no gated file declares.
type MissingFunc struct{ Rule Rule }

func (m MissingFunc) String() string {
	return fmt.Sprintf("manifest: hot function %s is declared in no gated package (renamed or deleted?); update the manifest", m.Rule.Func)
}

func posOf(d Diag) string { return fmt.Sprintf("%s:%d:%d", d.File, d.Line, d.Col) }

// Check runs the compiler over the manifest's packages in the module
// rooted at root and evaluates the diagnostics and assembly against the
// manifest and the baseline. A nil baseline means "empty counts, current
// toolchain" (no drift), which is what fixture tests want.
func Check(root string, m *Manifest, baseline *Baseline) (*Result, error) {
	out, err := runCompiler(root, m.Packages)
	if err != nil {
		return nil, err
	}
	toolchain, err := CurrentToolchain(root)
	if err != nil {
		return nil, err
	}
	if baseline == nil {
		baseline = &Baseline{Toolchain: toolchain}
	}
	diags := ParseDiagnostics(out)
	idx, err := buildIndex(root, m)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Counts:            make(map[string]int),
		Diags:             diags,
		Toolchain:         toolchain,
		BaselineToolchain: baseline.Toolchain,
	}
	// Shape rules see the raw diagnostic stream (allowed bounds checks
	// still count toward MaxBounds) and may mark shape directives used, so
	// they run before the stale sweep.
	res.ShapeViolations = checkShapes(m, ParseAsm(out), diags, idx)
	for _, rule := range m.Rules {
		if !idx.declares(rule.Func) {
			res.Missing = append(res.Missing, MissingFunc{Rule: rule})
		}
	}
	for _, d := range diags {
		if path.IsAbs(d.File) {
			// Generic standard-library code a gated package instantiates
			// (slices.Sort) is reported at its GOROOT source: not this
			// module's code, and at a path that differs between hosts.
			continue
		}
		if idx.allow(d) {
			continue
		}
		fn := idx.enclosingFunc(d)
		if rule, ok := m.ruleFor(fn); ok && idx.inLoop(d) {
			res.Violations = append(res.Violations, Violation{Diag: d, Func: fn, Rule: rule})
			continue
		}
		if fn == "" {
			fn = d.File // file-scope diagnostics (rare) key on the file
		}
		res.Counts[fn+"\t"+string(d.Kind)]++
	}

	res.Stale = idx.stale()
	if res.ToolchainStale() {
		// Counts from a different compiler are incomparable; skip the
		// ratchet rather than reporting version skew as regressions.
		return res, nil
	}
	for key, got := range res.Counts {
		base := baseline.Counts[key]
		switch {
		case got > base:
			res.Regressions = append(res.Regressions, Delta{Key: key, Got: got, Base: base})
		case got < base:
			res.Improvements = append(res.Improvements, Delta{Key: key, Got: got, Base: base})
		}
	}
	for key, base := range baseline.Counts {
		if _, ok := res.Counts[key]; !ok && base > 0 {
			res.Improvements = append(res.Improvements, Delta{Key: key, Got: 0, Base: base})
		}
	}
	sortDeltas(res.Regressions)
	sortDeltas(res.Improvements)
	return res, nil
}

func sortDeltas(ds []Delta) {
	sort.Slice(ds, func(i, j int) bool { return ds[i].Key < ds[j].Key })
}

// runCompiler builds the gated packages with diagnostics and the assembly
// listing enabled and returns the compiler's stderr: one compile feeds
// both ParseDiagnostics and ParseAsm. The flags are applied per package
// (not all=) so dependency output doesn't drown the gated packages'; the
// build cache replays stderr, so repeated runs stay fast and still see
// the diagnostics.
func runCompiler(root string, pkgs []string) ([]byte, error) {
	args := []string{"build"}
	for _, p := range pkgs {
		args = append(args, "-gcflags", p+"=-m=1 -d=ssa/check_bce -S")
	}
	args = append(args, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var buf bytes.Buffer
	cmd.Stdout = io.Discard
	cmd.Stderr = &buf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("gates: go build failed: %v\n%s", err, buf.Bytes())
	}
	return buf.Bytes(), nil
}

// ParseDiagnostics extracts escape and bounds-check diagnostics from
// compiler output, deduplicating repeats (the compiler re-emits a
// function's diagnostics at every inlined copy).
func ParseDiagnostics(out []byte) []Diag {
	var diags []Diag
	seen := make(map[Diag]bool)
	for _, line := range strings.Split(string(out), "\n") {
		file, ln, col, msg, ok := splitPos(strings.TrimSpace(line))
		if !ok {
			continue
		}
		var kind Kind
		switch {
		case msg == "Found IsInBounds" || msg == "Found IsSliceInBounds":
			kind = KindBounds
		case strings.HasSuffix(msg, "escapes to heap") || strings.HasPrefix(msg, "moved to heap:"):
			kind = KindEscape
		default:
			continue
		}
		// The compiler prints module-root files as "./x.go"; clean so the
		// path matches the index's root-relative form.
		d := Diag{File: path.Clean(filepath.ToSlash(file)), Line: ln, Col: col, Kind: kind, Text: msg}
		if !seen[d] {
			seen[d] = true
			diags = append(diags, d)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	return diags
}

// splitPos parses a "file:line:col: message" diagnostic line.
func splitPos(line string) (file string, ln, col int, msg string, ok bool) {
	parts := strings.SplitN(line, ":", 4)
	if len(parts) != 4 {
		return "", 0, 0, "", false
	}
	ln, err1 := strconv.Atoi(parts[1])
	col, err2 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil {
		return "", 0, 0, "", false
	}
	return parts[0], ln, col, strings.TrimSpace(parts[3]), true
}

// FindModuleRoot walks up from dir to the nearest go.mod and returns the
// module root directory and the declared module path.
func FindModuleRoot(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, found := strings.CutPrefix(strings.TrimSpace(line), "module"); found {
					if mp := strings.Trim(strings.TrimSpace(rest), `"`); mp != "" {
						return dir, mp, nil
					}
				}
			}
			return "", "", fmt.Errorf("gates: %s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("gates: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// gateAllow is one parsed //gate:allow directive.
type gateAllow struct {
	file  string
	line  int           // line of the comment itself
	kinds map[Kind]bool // nil means all kinds
	used  bool
}

// index maps diagnostic positions to functions, loop bodies, and
// //gate:allow directives for every non-test file of the gated packages.
type index struct {
	funcs  map[string][]funcSpan           // file -> top-level func decls
	loops  map[string][]lineSpan           // file -> loop body spans
	allows map[string]map[int][]*gateAllow // file -> line -> directives
	all    []*gateAllow
}

type funcSpan struct {
	name     string // qualified short name, e.g. "kernels.rootGeneric"
	from, to int
}

type lineSpan struct{ from, to int }

// buildIndex parses every non-test .go file of the manifest's packages.
func buildIndex(root string, m *Manifest) (*index, error) {
	_, modPath, err := FindModuleRoot(root)
	if err != nil {
		return nil, err
	}
	idx := &index{
		funcs:  make(map[string][]funcSpan),
		loops:  make(map[string][]lineSpan),
		allows: make(map[string]map[int][]*gateAllow),
	}
	fset := token.NewFileSet()
	for _, pkgPath := range m.Packages {
		rel := strings.TrimPrefix(strings.TrimPrefix(pkgPath, modPath), "/")
		dir := filepath.Join(root, filepath.FromSlash(rel))
		ents, err := os.ReadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("gates: reading package %s: %v", pkgPath, err)
		}
		for _, e := range ents {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			relFile := filepath.ToSlash(filepath.Join(rel, name))
			if rel == "" || rel == "." {
				relFile = name
			}
			idx.addFile(fset, relFile, f)
		}
	}
	return idx, nil
}

func (idx *index) addFile(fset *token.FileSet, relFile string, f *ast.File) {
	pkgName := f.Name.Name
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		name := pkgName + "." + funcName(fd)
		idx.funcs[relFile] = append(idx.funcs[relFile], funcSpan{
			name: name,
			from: fset.Position(fd.Pos()).Line,
			to:   fset.Position(fd.End()).Line,
		})
		if fd.Body != nil {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch s := n.(type) {
				case *ast.ForStmt:
					body = s.Body
				case *ast.RangeStmt:
					body = s.Body
				default:
					return true
				}
				idx.loops[relFile] = append(idx.loops[relFile], lineSpan{
					from: fset.Position(body.Lbrace).Line,
					to:   fset.Position(body.Rbrace).Line,
				})
				return true
			})
		}
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			kinds, ok := parseGateAllow(c.Text)
			if !ok {
				continue
			}
			pos := fset.Position(c.Slash)
			ga := &gateAllow{file: relFile, line: pos.Line, kinds: kinds}
			idx.all = append(idx.all, ga)
			byLine := idx.allows[relFile]
			if byLine == nil {
				byLine = make(map[int][]*gateAllow)
				idx.allows[relFile] = byLine
			}
			// A directive covers its own line and, when written on its own
			// line, the line below it.
			byLine[pos.Line] = append(byLine[pos.Line], ga)
			byLine[pos.Line+1] = append(byLine[pos.Line+1], ga)
		}
	}
}

// declares reports whether some indexed file declares the function fn.
func (idx *index) declares(fn string) bool {
	for _, spans := range idx.funcs {
		for _, sp := range spans {
			if sp.name == fn {
				return true
			}
		}
	}
	return false
}

// funcName renders a FuncDecl name, prefixing methods with the base name
// of their receiver type: "Tree.NumFibers".
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.Name + "." + fd.Name.Name
		default:
			return fd.Name.Name
		}
	}
}

// parseGateAllow reports whether text is a //gate:allow directive and, if
// so, which kinds it allows (nil = all).
func parseGateAllow(text string) (map[Kind]bool, bool) {
	body, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(text, "//")), "gate:allow")
	if !ok || (body != "" && body[0] != ' ' && body[0] != '\t') {
		return nil, false
	}
	fields := strings.Fields(body)
	if len(fields) == 0 {
		return nil, true
	}
	kinds := make(map[Kind]bool)
	for _, k := range strings.Split(fields[0], ",") {
		if ValidKind(k) {
			kinds[Kind(k)] = true
		} else {
			return nil, true // first word is reason text, not a kind list
		}
	}
	return kinds, true
}

// allow reports whether a directive covers d, marking every matching
// directive as used.
func (idx *index) allow(d Diag) bool {
	hit := false
	for _, ga := range idx.allows[d.File][d.Line] {
		if ga.kinds == nil || ga.kinds[d.Kind] {
			ga.used = true
			hit = true
		}
	}
	return hit
}

// enclosingFunc returns the qualified name of the top-level function
// containing d, or "" for file-scope positions. Function literals are
// attributed to their enclosing declaration.
func (idx *index) enclosingFunc(d Diag) string {
	for _, fs := range idx.funcs[d.File] {
		if fs.from <= d.Line && d.Line <= fs.to {
			return fs.name
		}
	}
	return ""
}

// inLoop reports whether d lies inside a for/range body.
func (idx *index) inLoop(d Diag) bool {
	for _, sp := range idx.loops[d.File] {
		if sp.from <= d.Line && d.Line <= sp.to {
			return true
		}
	}
	return false
}

// stale returns the directives that suppressed nothing, sorted by
// position.
func (idx *index) stale() []StaleAllow {
	var out []StaleAllow
	for _, ga := range idx.all {
		if !ga.used {
			out = append(out, StaleAllow{File: ga.file, Line: ga.line})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// BaselineFile is the committed baseline path, relative to the module root.
const BaselineFile = "internal/lint/gates/baseline.txt"

// toolchainKey is the baseline directive line carrying the stamp of the
// compiler that produced the counts; "!" cannot start a function name, so
// the line is unambiguous against count entries.
const toolchainKey = "!toolchain"

// Baseline is the committed gate state: the ratcheted per-(func, kind)
// diagnostic counts plus the toolchain that produced them.
type Baseline struct {
	// Toolchain is the `go env GOVERSION` stamp ("" for a pre-stamp file).
	Toolchain string
	// Counts maps "<func>\t<kind>" to the permitted diagnostic count.
	Counts map[string]int
}

// CurrentToolchain reports the Go toolchain version that `go build` in dir
// resolves to. This deliberately asks the go command rather than using
// runtime.Version(): the binary running the gate may have been built by a
// different toolchain than the one on PATH that compiles the packages.
func CurrentToolchain(dir string) (string, error) {
	cmd := exec.Command("go", "env", "GOVERSION")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("gates: go env GOVERSION: %v", err)
	}
	v := strings.TrimSpace(string(out))
	if v == "" {
		return "", fmt.Errorf("gates: go env GOVERSION returned nothing")
	}
	return v, nil
}

// LoadBaseline reads a baseline file: an optional "!toolchain\t<version>"
// stamp plus one "<func>\t<kind>\t<count>" entry per line, with #-comments
// and blank lines ignored.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	base := &Baseline{Counts: make(map[string]int)}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, "\t")
		if len(parts) == 2 && parts[0] == toolchainKey {
			base.Toolchain = parts[1]
			continue
		}
		if len(parts) != 3 {
			return nil, fmt.Errorf("gates: %s:%d: want \"func\\tkind\\tcount\", got %q", path, i+1, line)
		}
		n, err := strconv.Atoi(parts[2])
		if err != nil {
			return nil, fmt.Errorf("gates: %s:%d: bad count %q", path, i+1, parts[2])
		}
		base.Counts[parts[0]+"\t"+parts[1]] = n
	}
	return base, nil
}

// FormatBaseline renders a baseline in the committed format, sorted for
// stable diffs, with the toolchain stamp first.
func FormatBaseline(toolchain string, counts map[string]int) []byte {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	b.WriteString("# Baseline for `steflint -gates`: permitted compiler-diagnostic counts\n")
	b.WriteString("# outside the manifest's forbidden zones, keyed by function and kind.\n")
	b.WriteString("# Counts may only decrease; regenerate with `steflint -gates -write-baseline`.\n")
	b.WriteString("# The !toolchain stamp records the compiler that produced the counts;\n")
	b.WriteString("# on mismatch the gate reports \"baseline stale: toolchain changed\"\n")
	b.WriteString("# instead of meaningless ratchet deltas.\n")
	fmt.Fprintf(&b, "%s\t%s\n", toolchainKey, toolchain)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s\t%d\n", k, counts[k])
	}
	return b.Bytes()
}
