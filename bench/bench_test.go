package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestMain serves the worker processes the benchmark re-executes itself
// as: under `go test` the executable is this test binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// spec is the part of BENCHMARK.json the benchmark's own tables repeat.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecMatchesTables(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var specNames []string
	for _, w := range s.Workloads {
		specNames = append(specNames, w.Name)
	}
	if !reflect.DeepEqual(names, specNames) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", names, specNames)
	}
	// best is the benchmark's own choice of run value; BENCHMARK.json
	// does not carry it.
	unbest := func(ms []metric) []metric {
		out := slices.Clone(ms)
		for i := range out {
			out[i].best = false
		}
		return out
	}
	var e2e, layers []metric
	for _, m := range s.EndToEnd {
		e2e = append(e2e, metric{name: m.Name, unit: m.Unit, better: m.Better, bound: m.Bound})
	}
	for _, m := range s.PerLayer {
		layers = append(layers, metric{name: m.Name, unit: m.Unit, better: m.Better})
	}
	if !reflect.DeepEqual(e2e, unbest(endToEnd)) {
		t.Errorf("end-to-end metrics\n%v\nBENCHMARK.json lists\n%v", endToEnd, e2e)
	}
	if !reflect.DeepEqual(layers, unbest(perLayer)) {
		t.Errorf("per-layer metrics\n%v\nBENCHMARK.json lists\n%v", perLayer, layers)
	}
}

// TestSmoke runs tiny variants of every workload untraced and one traced,
// and checks what the driver and -compare rely on.
func TestSmoke(t *testing.T) {
	work := t.TempDir()
	cfg := config{seconds: 0, work: work, scale: 0.02, iters: 2}
	plain, _, err := measure(cfg, workloads, 1, 1, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	cfg.trace = true
	traced, _, err := measure(cfg, workloads[:1], 1, 1, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}

	s := readSpec(t)
	check := func(res resultsFile, name, unit string) {
		for _, wr := range res.Workloads {
			st, ok := wr.Metrics[name]
			if !ok || st.N == 0 || st.Unit != unit {
				t.Errorf("%s: metric %s not emitted with unit %s: %+v", wr.Name, name, unit, st)
			}
		}
	}
	for _, m := range s.EndToEnd {
		check(plain, m.Name, m.Unit)
	}
	for _, m := range s.PerLayer {
		check(traced, m.Name, m.Unit)
	}
	for _, wr := range append(plain.Workloads, traced.Workloads...) {
		if wr.Attempted == 0 || wr.Failed != 0 {
			t.Errorf("%s: %d of %d solves failed", wr.Name, wr.Failed, wr.Attempted)
		}
	}
	if _, err := os.Stat(filepath.Join(work, "trace-kernel-heavy-seed1.json")); err != nil {
		t.Errorf("traced run wrote no trace: %v", err)
	}

	path := filepath.Join(work, "results.json")
	if err := writeResults(path, plain); err != nil {
		t.Fatal(err)
	}
	back, err := readResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, plain) {
		t.Errorf("results file does not round-trip")
	}
	if worse := compareResults(io.Discard, back, back); worse != 0 {
		t.Errorf("comparing a file with itself found %d worse metrics", worse)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) on the same inputs; it refuses a
	// single value, which reads here as all three quartiles.
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4}, 4, 4, 4},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := func(vals ...float64) stat {
		return newStat(metric{name: "x", unit: "s", better: "lower", bound: 0.1}, vals, median(vals))
	}
	cases := []struct {
		base, head stat
		paired     bool
		want       string
	}{
		{lower(10, 10, 10), lower(10.5, 10.5, 10.5), false, "within bound"},
		{lower(10, 10, 10), lower(12, 12, 12), false, "worse"},
		{lower(10, 10, 10), lower(8, 8, 8), false, "better"},
		{lower(5, 10, 15), lower(10, 10, 10), false, "unresolved"},
		{lower(5, 10, 15), lower(1, 2, 3), false, "better"},
		// A host that drifts over the set widens each side's spread, but
		// runs paired one after the other drift together.
		{lower(10, 13, 8, 14), lower(10.2, 12.9, 8.1, 14.2), false, "unresolved"},
		{lower(10, 13, 8, 14), lower(10.2, 12.9, 8.1, 14.2), true, "within bound"},
		{lower(10, 13, 8, 14), lower(12, 15.6, 9.6, 16.8), true, "worse"},
		{lower(10, 13, 8, 14), lower(13, 10.4, 10.4, 11.2), true, "unresolved"},
	}
	for _, c := range cases {
		if got := verdict(c.base, c.head, c.paired); got != c.want {
			t.Errorf("verdict(%v, %v, paired %v) = %q, want %q", c.base.Values, c.head.Values, c.paired, got, c.want)
		}
	}
}

func TestRunValue(t *testing.T) {
	xs := []float64{3, 1, 4, 1.5, 9}
	cases := []struct {
		m    metric
		want float64
	}{
		{metric{better: "lower"}, 3},
		{metric{better: "lower", best: true}, 1},
		{metric{better: "higher", best: true}, 9},
	}
	for _, c := range cases {
		if got := c.m.runValue(xs); got != c.want {
			t.Errorf("%+v: run value %v, want %v", c.m, got, c.want)
		}
	}
}

// TestPairedBase runs one tiny workload on two seeds against a base
// checkout whose benchmark command prints a fixed summary line, and checks
// that the base side is read, paired seed by seed and compared.
func TestPairedBase(t *testing.T) {
	base := t.TempDir()
	line := summary{Correct: true, Attempted: 1, Metrics: make(map[string]summaryValue)}
	for _, m := range endToEnd {
		line.Metrics[m.name] = summaryValue{1e-3, m.unit}
	}
	lb, err := json.Marshal(line)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := json.Marshal(map[string][]string{"command": {"sh", "-c", "echo '" + string(lb) + "'", "sh"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(base, "BENCHMARK.json"), spec, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := config{seconds: 0, work: t.TempDir(), scale: 0.02, iters: 2, base: base}
	head, baseRes, err := measure(cfg, workloads[2:3], 1, 2, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	bw, hw := baseRes.Workloads[0], head.Workloads[0]
	if !bw.pairedWith(hw) || bw.Attempted != 2 {
		t.Errorf("base seeds %v (%d attempted), head seeds %v", bw.Seeds, bw.Attempted, hw.Seeds)
	}
	for _, m := range endToEnd {
		if got := bw.Metrics[m.name].Values; !slices.Equal(got, []float64{1e-3, 1e-3}) {
			t.Errorf("base %s values %v", m.name, got)
		}
	}
	var out strings.Builder
	compareResults(&out, baseRes, head)
	if !strings.Contains(out.String(), "paired on seeds [1 2]") {
		t.Errorf("comparison is not paired:\n%s", out.String())
	}
}
