package kernels

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"stef/internal/csf"
	"stef/internal/sched"
	"stef/internal/tensor"
)

// TestHugeDimBoundary drives a huge-dimension/small-nnz tensor — two modes
// just under 2^31, fiber ids at exactly dims[m]-1 — through CSF build,
// serialization round trip, partitioning and a full MTTKRP sweep, pinning
// that row indexing and OutBuf sizing survive int32-boundary dims.
//
// The dense per-mode state (factor matrices, accumulation buffers) is
// allocated at its full near-2^31-row extent but only the handful of rows
// the non-zeros reference is ever written, so the footprint is virtual:
// Go's large fresh allocations are lazily backed and the test touches a
// few pages of each. For the same reason the test never runs a dense
// full-matrix scan — Reset, Reduce and Reference would each stream tens
// of gigabytes — and instead reads the touched rows out of the buffers
// directly and compares them against a sparse per-row reference.
func TestHugeDimBoundary(t *testing.T) {
	const (
		nnz  = 96
		rank = 2
		T    = 2
	)
	dims := tensor.HugeDims()
	// The factor matrices and the one shared accumulation buffer below are
	// reserved at full extent together. Where the host refuses that much
	// address space (a strict overcommit policy, a small memory limit), the
	// runtime would abort the whole test binary, so probe first.
	sizes := []int{slices.Max(dims) * rank * 8}
	for _, n := range dims {
		sizes = append(sizes, n*rank*8)
	}
	if err := reserveVirtual(sizes); err != nil {
		t.Skipf("host cannot reserve the near-2^31-row virtual buffers: %v", err)
	}
	tt := tensor.HugeBoundary(dims, nnz, 7)
	if err := tt.Validate(true); err != nil {
		t.Fatalf("boundary tensor invalid: %v", err)
	}
	maxCoord := int32(0)
	for k := 0; k < tt.NNZ(); k++ {
		for _, c := range tt.Coord(k) {
			if c > maxCoord {
				maxCoord = c
			}
		}
	}
	if want := int32(1<<31 - 4); maxCoord != want {
		t.Fatalf("max coordinate %d, want the boundary %d", maxCoord, want)
	}

	tree := csf.Build(tt, nil)
	if err := tree.Validate(); err != nil {
		t.Fatalf("CSF of boundary tensor invalid: %v", err)
	}
	tree.WriteStats(io.Discard)

	var buf bytes.Buffer
	if _, err := tree.WriteTo(&buf); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	back, err := csf.ReadFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped tree invalid: %v", err)
	}
	if !csf.Equal(back, tree) {
		t.Fatal("round trip changed the tree")
	}

	// Arena round trip at the int32 boundary: near-2^31 dims and fiber ids
	// survive the pack/open cycle, and the sweep below runs on the
	// arena-backed tree, so every kernel reads the boundary fids out of the
	// mapped (or heap-fallback) storage rather than the heap build.
	arenaPath := filepath.Join(t.TempDir(), "huge.stef")
	if err := tree.WriteArena(arenaPath); err != nil {
		t.Fatalf("WriteArena: %v", err)
	}
	atree, err := csf.OpenArena(arenaPath)
	if err != nil {
		t.Fatalf("OpenArena: %v", err)
	}
	defer atree.Close()
	if err := atree.Validate(); err != nil {
		t.Fatalf("arena tree invalid: %v", err)
	}
	if !csf.Equal(atree, tree) {
		t.Fatal("arena round trip changed the tree")
	}
	tree = atree

	// Factor matrices at full extent, filled only on referenced rows.
	d := tt.Order()
	factors := make([]*tensor.Matrix, d)
	for m := 0; m < d; m++ {
		factors[m] = tensor.NewMatrix(tt.Dims[m], rank)
	}
	rng := rand.New(rand.NewSource(99))
	for k := 0; k < tt.NNZ(); k++ {
		c := tt.Coord(k)
		for m := 0; m < d; m++ {
			row := factors[m].Row(int(c[m]))
			if row[0] == 0 {
				for j := range row {
					row[j] = 0.5 + rng.Float64()
				}
			}
		}
	}
	lf := LevelFactors(factors, tree.Perm())
	part := sched.NewPartition(tree, T)
	partials := NewPartials(tree, rank, make([]bool, d))

	// Root level: the length-sorted heuristic puts the small mode at the
	// root, so its dense output is genuinely allocatable.
	out0 := tensor.NewMatrix(tree.Dim(0), rank)
	RootMTTKRP(tree, lf, out0, partials, part)
	checkSparseRows(t, tt, factors, tree.Perm()[0], out0.Row, "root")

	// One shared accumulation buffer, sized for the largest level, serves
	// every huge mode: the kernels index output rows by fiber id without
	// consulting the buffer's nominal row count, and allocating a second
	// near-2^31-row buffer after freeing the first would land on a reused
	// span, forcing the runtime to memclr the full tens-of-gigabytes
	// extent (fresh virtual memory is handed out already zero, so the
	// one-time allocation costs nothing). A fresh buffer is also already
	// zeroed; Reset would be the same full-extent clear.
	maxRows := 0
	for _, n := range tree.Dims() {
		if n > maxRows {
			maxRows = n
		}
	}
	ob := NewOutBuf(maxRows, rank, T, 0)
	for u := 1; u < d; u++ {
		ModeMTTKRP(tree, lf, u, partials, ob, part)
		checkSparseRows(t, tt, factors, tree.Perm()[u], func(row int) []float64 {
			return outBufRow(ob, row)
		}, "level")
		// Zero only the rows this level touched so the next level starts
		// from a clean buffer without a dense clear. Row sets of
		// different modes may overlap (the corners share fiber id 0 and
		// near-2^31 ids), so this cannot be skipped.
		for k := 0; k < tt.NNZ(); k++ {
			base := int(tt.Coord(k)[tree.Perm()[u]]) * rank
			for j := 0; j < rank; j++ {
				ob.shared[base+j] = 0
			}
		}
	}
}

// outBufRow reads one reduced output row straight out of the buffer's
// accumulation state, summing private replicas or decoding the shared
// bit-pattern region, without the full-matrix Reduce.
func outBufRow(b *OutBuf, row int) []float64 {
	out := make([]float64, b.cols)
	if b.priv != nil {
		copy(out, b.priv[0].Row(row))
		for th := 1; th < b.t; th++ {
			src := b.priv[th].Row(row)
			for j := range out {
				out[j] += src[j]
			}
		}
		return out
	}
	base := row * b.cols
	for j := range out {
		out[j] = math.Float64frombits(b.shared[base+j])
	}
	return out
}

// checkSparseRows compares the MTTKRP rows actually touched by tt's
// non-zeros for original mode m against a sparse COO reference, plus one
// untouched row that must have stayed zero.
func checkSparseRows(t *testing.T, tt *tensor.Tensor, factors []*tensor.Matrix, m int, rowOf func(int) []float64, ctx string) {
	t.Helper()
	d := tt.Order()
	r := factors[0].Cols
	want := make(map[int32][]float64)
	prod := make([]float64, r)
	for k := 0; k < tt.NNZ(); k++ {
		c := tt.Coord(k)
		for j := range prod {
			prod[j] = tt.Vals[k]
		}
		for mm := 0; mm < d; mm++ {
			if mm == m {
				continue
			}
			f := factors[mm].Row(int(c[mm]))
			for j := range prod {
				prod[j] *= f[j]
			}
		}
		dst := want[c[m]]
		if dst == nil {
			dst = make([]float64, r)
			want[c[m]] = dst
		}
		for j := range dst {
			dst[j] += prod[j]
		}
	}
	for fid, w := range want {
		got := rowOf(int(fid))
		for j := range w {
			scale := math.Abs(w[j])
			if scale < 1 {
				scale = 1
			}
			if math.Abs(got[j]-w[j]) > 1e-9*scale {
				t.Fatalf("%s mode %d row %d col %d: got %g, want %g", ctx, m, fid, j, got[j], w[j])
			}
		}
	}
	// A row no non-zero references must be untouched.
	probe := int32(tt.Dims[m] / 2)
	for {
		if _, hit := want[probe]; !hit {
			break
		}
		probe++
	}
	for j, v := range rowOf(int(probe)) {
		if v != 0 {
			t.Fatalf("%s mode %d untouched row %d col %d = %g, want 0", ctx, m, probe, j, v)
		}
	}
}
