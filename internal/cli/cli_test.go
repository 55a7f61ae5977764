package cli

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"stef/internal/frostt"
	"stef/internal/tensor"
)

// run executes a CLI entry point and returns (exit, stdout, stderr).
func run(t *testing.T, f func([]string, *bytes.Buffer, *bytes.Buffer) int, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := f(args, &out, &errb)
	return code, out.String(), errb.String()
}

func cpdEntry(args []string, out, errb *bytes.Buffer) int    { return RunStefCPD(args, out, errb) }
func genEntry(args []string, out, errb *bytes.Buffer) int    { return RunTensorGen(args, out, errb) }
func infoEntry(args []string, out, errb *bytes.Buffer) int   { return RunTensorInfo(args, out, errb) }
func verifyEntry(args []string, out, errb *bytes.Buffer) int { return RunVerify(args, out, errb) }
func benchEntry(args []string, out, errb *bytes.Buffer) int  { return RunBench(args, out, errb) }

// smallTNS writes a small random tensor to a temp .tns file.
func smallTNS(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "small.tns")
	tt := tensor.Random([]int{12, 15, 18}, 600, nil, 7)
	if err := frostt.WriteFile(path, tt); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestStefCPDList(t *testing.T) {
	code, out, _ := run(t, cpdEntry, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "uber") || !strings.Contains(out, "vast-2015-mc1-3d") {
		t.Fatalf("profile list incomplete:\n%s", out)
	}
}

func TestStefCPDOnFile(t *testing.T) {
	path := smallTNS(t)
	export := filepath.Join(t.TempDir(), "factors.txt")
	code, out, errb := run(t, cpdEntry,
		"-file", path, "-rank", "3", "-iters", "3", "-tol", "-1", "-engine", "stef", "-export", export)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	for _, want := range []string{"loaded tensor", "set-up", "CSF build", "kernels: one-level fiber runs, ", "iter   3", "finalFit", "% of solve", "factors written"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The parse is timed with its rate in MB/s of file, as the first part
	// of set-up.
	if loaded := regexp.MustCompile(`(?m)^loaded tensor 12x15x18, nnz=600, parse [0-9.]+(ns|µs|ms|s) at [0-9]+ MB/s$`); !loaded.MatchString(out) {
		t.Errorf("no parse time and rate on the loaded line:\n%s", out)
	}
	// The solve's start-up (initial factors and Grams) is reported apart
	// from its MTTKRP time.
	if solve := regexp.MustCompile(`(?m)^solve [0-9.]+(ns|µs|ms|s), start-up [0-9.]+(ns|µs|ms|s), MTTKRP [0-9.]+(ns|µs|ms|s) \([0-9.]+% of solve\)$`); !solve.MatchString(out) {
		t.Errorf("no solve, start-up and MTTKRP times on the solve line:\n%s", out)
	}
	if _, err := os.Stat(export); err != nil {
		t.Fatalf("export file missing: %v", err)
	}
}

func TestStefCPDErrors(t *testing.T) {
	if code, _, _ := run(t, cpdEntry); code == 0 {
		t.Error("no tensor specified should fail")
	}
	if code, _, _ := run(t, cpdEntry, "-tensor", "bogus"); code == 0 {
		t.Error("unknown tensor should fail")
	}
	if code, _, _ := run(t, cpdEntry, "-tensor", "uber", "-engine", "bogus"); code == 0 {
		t.Error("unknown engine should fail")
	}
	if code, _, _ := run(t, cpdEntry, "-badflag"); code != 2 {
		t.Error("bad flag should exit 2")
	}
	// Out-of-range counts are usage errors, named on stderr, not a solve at
	// a default or a stack trace.
	for _, c := range []struct{ flag, value, want string }{
		{"-rank", "-3", "-rank -3"},
		{"-rank", "0", "-rank 0"},
		{"-threads", "0", "-threads 0"},
		{"-iters", "-1", "MaxIters -1 is negative"},
	} {
		code, out, errb := run(t, cpdEntry, "-tensor", "uber", c.flag, c.value)
		if code == 0 || !strings.Contains(errb, c.want) {
			t.Errorf("%s %s: exit %d, stderr %q, stdout %q; want a failure naming %q", c.flag, c.value, code, errb, out, c.want)
		}
	}
	if code, _, _ := run(t, cpdEntry, "-file", "x", "-tensor", "y"); code == 0 {
		t.Error("both -file and -tensor should fail")
	}
}

func TestTensorGenCustomAndReadBack(t *testing.T) {
	out := filepath.Join(t.TempDir(), "custom.tns")
	code, _, errb := run(t, genEntry, "-dims", "10x20x30", "-nnz", "200", "-skew", "1.5,0,0", "-o", out)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	tt, err := frostt.ReadFile(out, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tt.NNZ() != 200 || tt.Order() != 3 {
		t.Fatalf("generated %v", tt)
	}
}

func TestTensorGenToStdout(t *testing.T) {
	code, out, _ := run(t, genEntry, "-dims", "4x5", "-nnz", "6", "-seed", "3")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 6 {
		t.Fatalf("expected 6 lines:\n%s", out)
	}
}

func TestTensorGenErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"-dims", "10"},
		{"-dims", "0x5"},
		{"-dims", "axb"},
		{"-dims", "10x10", "-skew", "1"},
		{"-dims", "10x10", "-skew", "a,b"},
		{"-tensor", "bogus"},
	}
	for _, args := range cases {
		if code, _, _ := run(t, genEntry, args...); code == 0 {
			t.Errorf("args %v should fail", args)
		}
	}
}

func TestTensorInfo(t *testing.T) {
	code, out, errb := run(t, infoEntry, "-tensor", "uber", "-rank", "8", "-threads", "3")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	for _, want := range []string{"CSF mode order", "Alg. 9", "balanced-partition imbalance", "STeF plan", "kernels: two-level fiber runs", "data-movement breakdown"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// TestTensorInfoBreakdownTotalsModeledCost holds tensorinfo's per-mode
// breakdown to the plan printed above it: the "all" row's reads, writes
// and total are the modeled cost's.
func TestTensorInfoBreakdownTotalsModeledCost(t *testing.T) {
	code, out, errb := run(t, infoEntry, "-tensor", "uber", "-rank", "8", "-threads", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	cost := regexp.MustCompile(`(?m)^  modeled cost: reads=(\d+) writes=(\d+) `).FindStringSubmatch(out)
	all := regexp.MustCompile(`(?m)^all +(\d+) +(\d+) +(\d+)$`).FindStringSubmatch(out)
	if cost == nil || all == nil {
		t.Fatalf("no modeled cost line or no breakdown total in:\n%s", out)
	}
	reads, _ := strconv.ParseInt(cost[1], 10, 64)
	writes, _ := strconv.ParseInt(cost[2], 10, 64)
	if want := fmt.Sprintf("%d %d %d", reads, writes, reads+writes); strings.Join(all[1:], " ") != want {
		t.Errorf("breakdown totals reads, writes, total = %s; the modeled cost is %s", strings.Join(all[1:], " "), want)
	}
}

func TestTensorInfoOnFile(t *testing.T) {
	path := smallTNS(t)
	code, _, errb := run(t, infoEntry, "-file", path, "-rank", "4", "-threads", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
}

func TestVerifyPasses(t *testing.T) {
	path := smallTNS(t)
	code, out, errb := run(t, verifyEntry, "-file", path, "-rank", "3", "-threads", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s\n%s", code, errb, out)
	}
	if strings.Contains(out, "FAIL") {
		t.Fatalf("verification failed:\n%s", out)
	}
	if c := strings.Count(out, "PASS"); c != 10 {
		t.Fatalf("%d engines passed, want 10:\n%s", c, out)
	}
}

func TestBenchRequiresSelection(t *testing.T) {
	if code, _, _ := run(t, benchEntry); code != 2 {
		t.Error("no selection should exit 2")
	}
}

func TestBenchSmallRun(t *testing.T) {
	code, out, errb := run(t, benchEntry,
		"-table1", "-table2", "-workdist",
		"-tensors", "uber", "-ranks", "8", "-scale", "0.02", "-threads", "2", "-reps", "1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	for _, want := range []string{"Table I", "Table II", "Work distribution"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// TestBenchSweepsJSON runs the -solvebench and -arenabench sweeps end to
// end on one small tensor and checks the JSON report's schema, not its
// timings: every section has its rows, and the heap and arena solves
// agree bit for bit.
func TestBenchSweepsJSON(t *testing.T) {
	code, out, errb := run(t, benchEntry,
		"-solvebench", "-arenabench", "-json",
		"-tensors", "uber", "-ranks", "8", "-scale", "0.02", "-threads", "2",
		"-reps", "1", "-solves", "2", "-iters", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	dec := json.NewDecoder(strings.NewReader(out))
	dec.DisallowUnknownFields()
	var rep benchReport
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("report does not decode: %v\n%s", err, out)
	}
	if len(rep.SolveBench) != 1 || rep.SolveBench[0].Tensor != "uber" || rep.SolveBench[0].Solves != 2 {
		t.Errorf("solvebench rows %+v, want one uber row of 2 solves", rep.SolveBench)
	}
	if len(rep.ArenaBench) != 1 {
		t.Fatalf("arenabench has %d rows, want 1", len(rep.ArenaBench))
	}
	for _, r := range rep.ArenaBench {
		if !r.SolveParity {
			t.Errorf("arenabench %s: heap and arena solves differ", r.Tensor)
		}
	}
}

func TestBenchBadRanks(t *testing.T) {
	if code, _, _ := run(t, benchEntry, "-table1", "-ranks", "x"); code == 0 {
		t.Error("bad ranks should fail")
	}
}

// TestBadCountFlags runs each tool with an out-of-range count: each must
// exit 2 with the flag named on stderr, before any work and without a
// panic.
func TestBadCountFlags(t *testing.T) {
	for _, c := range []struct {
		name  string
		entry func([]string, *bytes.Buffer, *bytes.Buffer) int
		args  []string
		want  string
	}{
		{"stef-bench -ranks 0", benchEntry, []string{"-table2", "-tensors", "uber", "-ranks", "0"}, "-ranks"},
		{"stef-bench -ranks -4", benchEntry, []string{"-table2", "-tensors", "uber", "-ranks", "-4"}, "-ranks"},
		{"tensorinfo -threads 0", infoEntry, []string{"-tensor", "uber", "-threads", "0"}, "-threads 0"},
		{"tensorinfo -rank 0", infoEntry, []string{"-tensor", "uber", "-rank", "0"}, "-rank 0"},
		{"tensorgen -nnz -5", genEntry, []string{"-dims", "10x10x10", "-nnz", "-5"}, "-nnz -5"},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic: %v", r)
				}
			}()
			code, out, errb := run(t, c.entry, c.args...)
			if code != 2 || !strings.Contains(errb, c.want) {
				t.Errorf("exit %d, stderr %q, stdout %q; want exit 2 naming %q", code, errb, out, c.want)
			}
			if out != "" {
				t.Errorf("stdout %q; want no output before the flag is rejected", out)
			}
		})
	}
}

func TestParseHelpers(t *testing.T) {
	if _, err := ParseDims("3x4x5"); err != nil {
		t.Error(err)
	}
	if _, err := ParseSkew("1,0,2.5", 3); err != nil {
		t.Error(err)
	}
	if _, err := parseIntList(" 32 , 64 "); err != nil {
		t.Error(err)
	}
	if _, err := parseIntList(","); err == nil {
		t.Error("empty list accepted")
	}
	if _, err := parseIntList("8,0"); err == nil {
		t.Error("a value below 1 accepted")
	}
}

func TestSweepRankCSV(t *testing.T) {
	code, out, errb := run(t, func(a []string, o, e *bytes.Buffer) int { return RunSweep(a, o, e) },
		"-tensor", "uber", "-param", "rank", "-values", "4,8", "-engines", "stef", "-reps", "1", "-threads", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // header + 2 values × 1 engine
		t.Fatalf("got %d CSV lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "tensor,engine,param,value") {
		t.Fatalf("bad header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "uber,stef,rank,4,") {
		t.Fatalf("bad record %q", lines[1])
	}
}

func TestSweepCacheShowsPlans(t *testing.T) {
	code, _, errb := run(t, func(a []string, o, e *bytes.Buffer) int { return RunSweep(a, o, e) },
		"-tensor", "uber", "-param", "cache", "-values", "65536,4194304", "-engines", "stef", "-reps", "1", "-threads", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	if !strings.Contains(errb, "plan decisions") {
		t.Fatalf("missing plan decisions on stderr:\n%s", errb)
	}
}

func TestSweepErrors(t *testing.T) {
	sweep := func(a []string, o, e *bytes.Buffer) int { return RunSweep(a, o, e) }
	for _, args := range [][]string{
		{"-tensor", "uber", "-param", "bogus"},
		{"-tensor", "uber", "-values", "x"},
		{"-tensor", "uber", "-engines", "bogus", "-values", "4"},
		{"-tensor", "bogus"},
	} {
		if code, _, _ := run(t, sweep, args...); code == 0 {
			t.Errorf("args %v should fail", args)
		}
	}
}
