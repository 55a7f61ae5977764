package frostt

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"stef/internal/tensor"
)

// readOracle is the line-at-a-time parser Read replaced: a bufio.Scanner
// over lines, strings.Fields and strconv. The block parser must accept and
// reject exactly the inputs it does, with the same tensors and errors.
func readOracle(r io.Reader, dims []int) (*tensor.Tensor, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var (
		inds  []int32
		vals  []float64
		order int
		maxes []int32
		line  int
	)
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if order == 0 {
			order = len(fields) - 1
			if order < 1 {
				return nil, fmt.Errorf("frostt: line %d: need at least one coordinate and a value", line)
			}
			maxes = make([]int32, order)
		}
		if len(fields) != order+1 {
			return nil, fmt.Errorf("frostt: line %d: got %d fields, want %d", line, len(fields), order+1)
		}
		for m := 0; m < order; m++ {
			c, err := strconv.ParseInt(fields[m], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("frostt: line %d: bad coordinate %q: %v", line, fields[m], err)
			}
			if c < 1 {
				return nil, fmt.Errorf("frostt: line %d: coordinate %d is not 1-based", line, c)
			}
			ci := int32(c - 1)
			if ci > maxes[m] {
				maxes[m] = ci
			}
			inds = append(inds, ci)
		}
		v, err := strconv.ParseFloat(fields[order], 64)
		if err != nil {
			return nil, fmt.Errorf("frostt: line %d: bad value %q: %v", line, fields[order], err)
		}
		vals = append(vals, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("frostt: scan: %w", err)
	}
	if order == 0 {
		return nil, fmt.Errorf("frostt: empty input")
	}
	if dims == nil {
		dims = make([]int, order)
		for m := range dims {
			dims[m] = int(maxes[m]) + 1
		}
	} else if len(dims) != order {
		return nil, fmt.Errorf("frostt: provided dims order %d does not match data order %d", len(dims), order)
	} else {
		for m := range dims {
			if int(maxes[m]) >= dims[m] {
				return nil, fmt.Errorf("frostt: coordinate %d exceeds provided mode-%d length %d", maxes[m]+1, m, dims[m])
			}
		}
	}
	t := &tensor.Tensor{Dims: dims, Inds: inds, Vals: vals}
	if err := t.Validate(false); err != nil {
		return nil, fmt.Errorf("frostt: %w", err)
	}
	return t, nil
}

// checkLikeOracle parses in with blocks of size bytes and fails t unless
// the result matches the oracle's: the same error text (so the same line
// number) for a rejected input, and bit-identical Dims, Inds and Vals for
// an accepted one, which must also pass Validate (Read itself does not
// run it). It returns the accepted tensor.
func checkLikeOracle(t *testing.T, in string, size int) *tensor.Tensor {
	t.Helper()
	want, wantErr := readOracle(strings.NewReader(in), nil)
	got, err := read(strings.NewReader(in), nil, size)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("block size %d: error %v, oracle error %v", size, err, wantErr)
	}
	if err != nil {
		if err.Error() != wantErr.Error() {
			t.Fatalf("block size %d: error %q, oracle error %q", size, err, wantErr)
		}
		return nil
	}
	if !slices.Equal(got.Dims, want.Dims) || !slices.Equal(got.Inds, want.Inds) {
		t.Fatalf("block size %d: dims %v and %d coordinates, oracle dims %v and %d coordinates", size, got.Dims, len(got.Inds), want.Dims, len(want.Inds))
	}
	if !slices.EqualFunc(got.Vals, want.Vals, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		t.Fatalf("block size %d: values differ from the oracle's", size)
	}
	if err := got.Validate(false); err != nil {
		t.Fatalf("block size %d: accepted tensor fails Validate: %v", size, err)
	}
	return got
}

// FuzzRead checks the .tns parser against the oracle, cutting the input
// into blocks of several sizes (one byte puts a block boundary inside every
// line), and requires every accepted tensor to pass Validate and to survive
// a write/read round trip. The later seeds sit at the scanner's edges,
// where a line either stays on the fast path or falls back to strconv.
func FuzzRead(f *testing.F) {
	f.Add("1 1 1 1.0\n")
	f.Add("# comment\n2 3 4 -5.5\n1 1 1 0\n")
	f.Add("")
	f.Add("1 1\n")
	f.Add("0 0 0 0\n")
	f.Add("9999999999999 1 1\n")
	f.Add("1 1 nan\n")
	f.Add("1 2 3.5\r\n4 5 6\r\n")
	f.Add("1\t2\v3\f4.5\n\t 2 2 2 1\n")
	f.Add("+1 007 0003 2.5\n+0 1 1 1\n")
	f.Add("2147483647 1 1.5\n")
	f.Add("2147483648 1 1.5\n")
	f.Add("1\u00a02 3.5\n")
	f.Add("1 2\u00853.5\n")
	f.Add("\u00a0# not data\n1 2 3\n")
	f.Add("1 2 3\n# middle comment\n4 5 6\n\n7 8 9")
	f.Add("1 2 3\n1 2 x\n")
	f.Add("1 2 3\n4 5\n")
	f.Add("1 1 1.234567890123456789\n2 2 12345678901234567890\n")
	f.Add("1 1 1.2345678901234567891\n2 2 0.00000000000000000000123456789012345678901\n")
	f.Add("1 1 -2.5\n2 2 +2.5\n3 3 -0\n4 4 -0.0e5\n")
	f.Add("1 1 1e5\n2 2 1.5E-3\n3 3 .5e+22\n4 4 7e-23\n5 5 1e64\n6 6 1e65\n")
	f.Add("1\t2\t3.5\r\n\t4 5\t6.25 \r\n\r\n")
	f.Add("2147483647 1 1.5\n0000000001 2 2.5\n00000000001 3 3.5\n")
	f.Add("1 2 3.5x\n")
	f.Add("1 2 3.5#\n")
	f.Add("1.5 2 3.5\n")
	f.Fuzz(func(t *testing.T, in string) {
		var tt *tensor.Tensor
		for _, size := range []int{1, 7, 64, blockSize} {
			tt = checkLikeOracle(t, in, size)
		}
		if tt == nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, tt); err != nil {
			t.Fatalf("write of accepted tensor failed: %v", err)
		}
		back, err := Read(&buf, tt.Dims)
		if err != nil {
			t.Fatalf("round trip of accepted tensor failed: %v", err)
		}
		if back.NNZ() != tt.NNZ() {
			t.Fatalf("round trip changed nnz %d -> %d", tt.NNZ(), back.NNZ())
		}
	})
}
