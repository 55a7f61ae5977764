package gates

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseDiagnostics(t *testing.T) {
	out := strings.Join([]string{
		"./vec.go:10:2: Found IsInBounds",
		"./vec.go:11:5: Found IsSliceInBounds",
		"./root.go:20:9: make([]float64, r) escapes to heap",
		"./root.go:21:2: moved to heap: tmp",
		"./vec.go:10:2: Found IsInBounds", // inlined repeat, must dedup
		"./root.go:5:6: can inline rootGeneric",
		"./root.go:6:7: leaking param: tree",
		"./root.go:7:7: factors does not escape",
		"not a diagnostic line",
		"./weird.go:x:1: Found IsInBounds", // malformed position
	}, "\n")
	diags := ParseDiagnostics([]byte(out))
	if len(diags) != 4 {
		t.Fatalf("got %d diagnostics, want 4: %v", len(diags), diags)
	}
	wantKinds := map[string]Kind{
		"root.go:20": KindEscape,
		"root.go:21": KindEscape,
		"vec.go:10":  KindBounds,
		"vec.go:11":  KindBounds,
	}
	for _, d := range diags {
		key := d.File + ":" + itoa(d.Line)
		if wantKinds[key] != d.Kind {
			t.Errorf("%s: kind %q, want %q", key, d.Kind, wantKinds[key])
		}
	}
	// Sorted by file, then line.
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) {
			t.Errorf("diagnostics not sorted: %v before %v", a, b)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestParseGateAllow(t *testing.T) {
	cases := []struct {
		text   string
		isDir  bool
		escape bool
		bounds bool
	}{
		{"//gate:allow bounds tail loop", true, false, true},
		{"//gate:allow escape setup once", true, true, false},
		{"//gate:allow escape,bounds setup once", true, true, true},
		{"//gate:allow data-dependent index", true, true, true}, // reason only: all kinds
		{"//gate:allow", true, true, true},
		{"//gate:allowed nothing", false, false, false}, // no word boundary
		{"// gate:allow spaced out", true, true, true},
		{"//lint:allow hotpath-alloc", false, false, false},
	}
	for _, c := range cases {
		kinds, ok := parseGateAllow(c.text)
		if ok != c.isDir {
			t.Errorf("%q: directive=%v, want %v", c.text, ok, c.isDir)
			continue
		}
		if !ok {
			continue
		}
		gotEscape := kinds == nil || kinds[KindEscape]
		gotBounds := kinds == nil || kinds[KindBounds]
		if gotEscape != c.escape || gotBounds != c.bounds {
			t.Errorf("%q: allows escape=%v bounds=%v, want %v/%v", c.text, gotEscape, gotBounds, c.escape, c.bounds)
		}
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	counts := map[string]int{
		"kernels.rootGeneric\tbounds": 3,
		"sched.NewPartition\tescape":  1,
	}
	path := filepath.Join(t.TempDir(), "baseline.txt")
	if err := os.WriteFile(path, FormatBaseline("go1.99.9", counts), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Toolchain != "go1.99.9" {
		t.Errorf("toolchain stamp %q did not round-trip", got.Toolchain)
	}
	if len(got.Counts) != len(counts) {
		t.Fatalf("round trip lost entries: %v vs %v", got.Counts, counts)
	}
	for k, v := range counts {
		if got.Counts[k] != v {
			t.Errorf("key %q: got %d, want %d", k, got.Counts[k], v)
		}
	}
}

// TestBaselineUnstampedLoads keeps pre-stamp baselines loadable: the stamp
// stays empty, which Check reports as toolchain-stale rather than a parse
// error.
func TestBaselineUnstampedLoads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.txt")
	if err := os.WriteFile(path, []byte("# old format\nkernels.f\tbounds\t2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Toolchain != "" {
		t.Errorf("unstamped baseline reports toolchain %q, want empty", got.Toolchain)
	}
	if got.Counts["kernels.f\tbounds"] != 2 {
		t.Errorf("counts lost: %v", got.Counts)
	}
}

func TestLoadBaselineRejectsMalformed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.txt")
	if err := os.WriteFile(path, []byte("just one field\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBaseline(path); err == nil {
		t.Fatal("malformed baseline accepted")
	}
}

// fixtureManifest gates the gatesfix module with Hot as its only hot
// function.
func fixtureManifest() *Manifest {
	return &Manifest{
		Packages: []string{"gatesfix"},
		Rules:    []Rule{{Func: "gatesfix.Hot", Note: "fixture hot loop"}},
	}
}

// TestCheckFixture proves the gate actually fires: the fixture seeds one
// heap escape and one bounds check inside Hot's loop, and both must be
// reported; the identical code in Allowed is covered by //gate:allow and
// must not be; the deliberately stale directive must be flagged.
func TestCheckFixture(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src", "gatesfix"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Check(root, fixtureManifest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var escapes, bounds int
	for _, v := range res.Violations {
		if v.Func != "gatesfix.Hot" {
			t.Errorf("violation outside Hot: %v", v)
		}
		switch v.Diag.Kind {
		case KindEscape:
			escapes++
		case KindBounds:
			bounds++
		}
	}
	if escapes == 0 {
		t.Errorf("seeded heap escape in Hot's loop not caught; violations: %v", res.Violations)
	}
	if bounds == 0 {
		t.Errorf("seeded bounds check in Hot's loop not caught; violations: %v", res.Violations)
	}
	if len(res.Stale) != 1 {
		t.Errorf("got %d stale allows, want exactly the seeded one: %v", len(res.Stale), res.Stale)
	} else if res.Stale[0].File != "hot.go" {
		t.Errorf("stale allow reported in %s, want hot.go", res.Stale[0].File)
	}
	// Allowed has the same diagnostics under //gate:allow: none of them may
	// surface as violations or baseline counts.
	for _, v := range res.Violations {
		if v.Func == "gatesfix.Allowed" {
			t.Errorf("gate:allow-covered diagnostic reported: %v", v)
		}
	}
	for key := range res.Counts {
		if strings.HasPrefix(key, "gatesfix.Allowed\t") && strings.HasSuffix(key, string(KindBounds)) {
			t.Errorf("allowed in-loop bounds diagnostic leaked into baseline counts: %q", key)
		}
		// Sorted's slices.Sort is reported inside GOROOT, at a path that
		// differs between hosts; it must not reach the baseline.
		if strings.HasPrefix(key, "/") {
			t.Errorf("diagnostic outside the module counted: %q", key)
		}
	}
}

// TestCheckFixtureMissingFunc pins the manifest's own check: a rule
// naming a function that no gated file declares (here one deleted from
// the fixture, next to the real Hot) is reported and fails OK(), so a
// renamed hot function cannot leave the gates silently.
func TestCheckFixtureMissingFunc(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src", "gatesfix"))
	if err != nil {
		t.Fatal(err)
	}
	m := fixtureManifest()
	m.Rules = append(m.Rules, Rule{Func: "gatesfix.Gone", Note: "fixture: a hot function since deleted"})
	res, err := Check(root, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Missing) != 1 || res.Missing[0].Rule.Func != "gatesfix.Gone" {
		t.Fatalf("missing functions %v, want exactly gatesfix.Gone", res.Missing)
	}
	if res.OK() {
		t.Error("a manifest rule naming a missing function must not pass OK()")
	}
	if !strings.Contains(res.Missing[0].String(), "gatesfix.Gone") {
		t.Errorf("finding %q does not name the function", res.Missing[0])
	}
}

// TestCheckFixtureBaselineRatchet runs the fixture twice: an empty baseline
// must report the out-of-loop diagnostics as regressions, and a baseline
// equal to the observed counts must be clean.
func TestCheckFixtureBaselineRatchet(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src", "gatesfix"))
	if err != nil {
		t.Fatal(err)
	}
	first, err := Check(root, fixtureManifest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Counts) == 0 {
		t.Fatal("fixture produced no baseline-tracked diagnostics; the ratchet test needs some")
	}
	if len(first.Regressions) == 0 {
		t.Error("non-empty counts against an empty baseline must regress")
	}
	second, err := Check(root, fixtureManifest(), &Baseline{Toolchain: first.Toolchain, Counts: first.Counts})
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Regressions) != 0 {
		t.Errorf("counts == baseline must not regress: %v", second.Regressions)
	}
	if len(second.Improvements) != 0 {
		t.Errorf("counts == baseline must not improve: %v", second.Improvements)
	}
}

// TestCheckToolchainStale pins the drift behaviour: a baseline stamped by
// another compiler must flag staleness, suppress the ratchet deltas (the
// counts are incomparable), and fail OK().
func TestCheckToolchainStale(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src", "gatesfix"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Check(root, fixtureManifest(), &Baseline{Toolchain: "go0.0.0", Counts: map[string]int{}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ToolchainStale() {
		t.Fatalf("baseline stamped go0.0.0 vs current %s must be stale", res.Toolchain)
	}
	if len(res.Regressions) != 0 || len(res.Improvements) != 0 {
		t.Errorf("stale toolchain must suppress ratchet deltas, got %d regressions, %d improvements",
			len(res.Regressions), len(res.Improvements))
	}
	if res.OK() {
		t.Error("toolchain-stale result must not pass OK()")
	}
}

// TestRepoGatesClean is the self-check: the repository must pass its own
// gates against the committed baseline.
func TestRepoGatesClean(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the gated packages; skipped in -short")
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, modPath, err := FindModuleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	if modPath != "stef" {
		t.Fatalf("module root resolution found %q, want stef", modPath)
	}
	baseline, err := LoadBaseline(filepath.Join(root, filepath.FromSlash(BaselineFile)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Check(root, Default(), baseline)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %v", v)
	}
	for _, v := range res.ShapeViolations {
		t.Errorf("shape violation: %v", v)
	}
	for _, m := range res.Missing {
		t.Errorf("%v", m)
	}
	for _, s := range res.Stale {
		t.Errorf("stale allow: %v", s)
	}
	for _, d := range res.Regressions {
		t.Errorf("regression vs baseline: %v", d)
	}
	if res.ToolchainStale() {
		t.Errorf("baseline toolchain %q does not match current %q; run `steflint -gates -write-baseline`",
			res.BaselineToolchain, res.Toolchain)
	}
	if !res.OK() {
		t.Error("repository does not pass its own gates")
	}
}

func TestFindModuleRoot(t *testing.T) {
	dir := filepath.Join("testdata", "src", "gatesfix")
	root, modPath, err := FindModuleRoot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if modPath != "gatesfix" {
		t.Errorf("module path %q, want gatesfix", modPath)
	}
	abs, _ := filepath.Abs(dir)
	if root != abs {
		t.Errorf("root %q, want %q", root, abs)
	}
	if _, _, err := FindModuleRoot(string(filepath.Separator)); err == nil {
		t.Error("expected an error above the filesystem root")
	}
}
