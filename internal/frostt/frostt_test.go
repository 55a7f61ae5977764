package frostt

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"stef/internal/tensor"
)

func TestReadBasic(t *testing.T) {
	in := `# comment line
1 1 1 1.5

2 3 4 -2.25
`
	tt, err := Read(strings.NewReader(in), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tt.Order() != 3 || tt.NNZ() != 2 {
		t.Fatalf("order=%d nnz=%d", tt.Order(), tt.NNZ())
	}
	if c := tt.Coord(0); c[0] != 0 || c[1] != 0 || c[2] != 0 {
		t.Fatalf("coord %v (should be 0-based)", c)
	}
	if tt.Dims[0] != 2 || tt.Dims[1] != 3 || tt.Dims[2] != 4 {
		t.Fatalf("inferred dims %v", tt.Dims)
	}
	if tt.Vals[1] != -2.25 {
		t.Fatalf("val %g", tt.Vals[1])
	}
}

func TestReadWithDims(t *testing.T) {
	in := "1 1 2\n"
	tt, err := Read(strings.NewReader(in), []int{5, 9})
	if err != nil {
		t.Fatal(err)
	}
	if tt.Dims[0] != 5 || tt.Dims[1] != 9 {
		t.Fatalf("dims %v", tt.Dims)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		dims []int
	}{
		{"empty", "", nil},
		{"ragged", "1 1 1 1.0\n1 1 1.0\n", nil},
		{"zero-based", "0 1 1.0\n", nil},
		{"bad value", "1 1 x\n", nil},
		{"bad coord", "a 1 1.0\n", nil},
		{"dims too small", "7 1 1.0\n", []int{3, 3}},
		{"dims wrong order", "1 1 1.0\n", []int{3, 3, 3}},
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c.in), c.dims); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	orig := tensor.Random([]int{6, 7, 8, 9}, 120, nil, 3)
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf, orig.Dims)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != orig.NNZ() {
		t.Fatalf("nnz %d, want %d", back.NNZ(), orig.NNZ())
	}
	for k := 0; k < orig.NNZ(); k++ {
		a, b := orig.Coord(k), back.Coord(k)
		for m := range a {
			if a[m] != b[m] {
				t.Fatalf("coord mismatch at %d", k)
			}
		}
		if orig.Vals[k] != back.Vals[k] {
			t.Fatalf("value mismatch at %d: %g vs %g", k, orig.Vals[k], back.Vals[k])
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.tns")
	orig := tensor.Random([]int{4, 5, 6}, 40, nil, 8)
	if err := WriteFile(path, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != orig.NNZ() {
		t.Fatalf("nnz %d, want %d", back.NNZ(), orig.NNZ())
	}
}

func TestGzipFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.tns.gz")
	orig := tensor.Random([]int{8, 9, 10}, 70, nil, 12)
	if err := WriteFile(path, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != orig.NNZ() {
		t.Fatalf("nnz %d, want %d", back.NNZ(), orig.NNZ())
	}
	for k := 0; k < orig.NNZ(); k++ {
		if orig.Vals[k] != back.Vals[k] {
			t.Fatalf("value mismatch at %d", k)
		}
	}
	// The .gz file must actually be compressed (magic bytes).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Fatal("output is not gzip-compressed")
	}
}

func TestReadFileBadGzip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.tns.gz")
	if err := os.WriteFile(path, []byte("not gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path, nil); err == nil {
		t.Fatal("expected gzip error")
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile("/nonexistent/path.tns", nil); err == nil {
		t.Fatal("expected error")
	}
}

// manyLines returns n data lines of varying length, so that block
// boundaries fall inside lines, with a comment and a blank line mixed in.
func manyLines(n int) string {
	var sb strings.Builder
	for k := 0; k < n; k++ {
		switch k % 97 {
		case 13:
			sb.WriteString("# a comment between the data lines\n")
		case 51:
			sb.WriteString("\n")
		}
		fmt.Fprintf(&sb, "%d %d %d %d.%d\n", 1+k%7, 1+k*k%1009, 1+k%100003, k%13-6, k%1000)
	}
	return sb.String()
}

// TestReadAcrossBlocks parses an input of several blocks, with lines
// straddling the block boundaries, on one and on three threads: the tensor
// must equal the line-at-a-time oracle's, and an error in a late block
// must name its line in the whole input.
func TestReadAcrossBlocks(t *testing.T) {
	in := manyLines(200000)
	if len(in) < 3*blockSize {
		t.Fatalf("input is %d bytes, want at least three blocks", len(in))
	}
	lines := strings.Count(in, "\n")
	bad := in + "1 2\n" + manyLines(10)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		if tt := checkLikeOracle(t, in, blockSize); tt.NNZ() != 200000 {
			t.Fatalf("GOMAXPROCS=%d: nnz %d, want 200000", procs, tt.NNZ())
		}
		checkLikeOracle(t, bad, blockSize)
		_, err := Read(strings.NewReader(bad), nil)
		if want := fmt.Sprintf("frostt: line %d: got 2 fields, want 4", lines+1); err == nil || err.Error() != want {
			t.Fatalf("GOMAXPROCS=%d: error %v, want %q", procs, err, want)
		}
	}
}

// TestReadLongLines pins the line-length limit at its edge, on comment
// and data lines that end in a newline and on a last line without one:
// maxLine bytes are accepted and one more is rejected, as the oracle's
// scanner does. The padded data line is one the fast path would otherwise
// take.
func TestReadLongLines(t *testing.T) {
	head := "1 1 1.5\n"
	for _, n := range []int{maxLine, maxLine + 1} {
		comment := "#" + strings.Repeat("x", n-1)
		data := "2" + strings.Repeat(" ", n-6) + "2 2.5"
		for _, in := range []string{
			head + comment + "\n2 2 2.5\n",
			head + comment,
			comment + "\n" + head,
			head + data + "\n" + head,
			head + data,
			data + "\n" + head,
		} {
			_, err := Read(strings.NewReader(in), nil)
			if (err == nil) != (n == maxLine) {
				t.Fatalf("%d-byte line: error %v", n, err)
			}
			checkLikeOracle(t, in, blockSize)
		}
	}
}

// TestReadAllocIndependentOfLines pins the one-pass scanner: parsing
// allocates per block and per result slice, never per line, so 50 times
// the lines within one block cost the same allocations.
func TestReadAllocIndependentOfLines(t *testing.T) {
	measure := func(n int) float64 {
		var sb strings.Builder
		for k := 0; k < n; k++ {
			fmt.Fprintf(&sb, "%d %d %d 0.%d\n", 1+k%9, 1+k/9%9, 1+k/81%9, k%10)
		}
		in := sb.String()
		if len(in) >= blockSize {
			t.Fatalf("%d lines take %d bytes, more than one block", n, len(in))
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := Read(strings.NewReader(in), nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := measure(1000), measure(50000); small != large {
		t.Fatalf("Read allocations grow with the line count: %.0f at 1k lines, %.0f at 50k", small, large)
	}
}
