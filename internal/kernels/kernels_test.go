package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"stef/internal/csf"
	"stef/internal/sched"
	"stef/internal/tensor"
)

const tol = 1e-9

// relClose compares matrices with a relative tolerance scaled by magnitude.
func relClose(t *testing.T, got, want *tensor.Matrix, ctx string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", ctx, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	scale := want.NormFrobenius()
	if scale == 0 {
		scale = 1
	}
	for i, v := range got.Data {
		if math.Abs(v-want.Data[i]) > tol*scale {
			t.Fatalf("%s: element %d = %g, want %g (scale %g)", ctx, i, v, want.Data[i], scale)
		}
	}
}

// memoSubsets enumerates all valid Save vectors for an order-d tree
// (levels 1..d-2 free, others false).
func memoSubsets(d int) [][]bool {
	free := d - 2 // levels 1..d-2
	var out [][]bool
	for mask := 0; mask < 1<<free; mask++ {
		save := make([]bool, d)
		for b := 0; b < free; b++ {
			if mask&(1<<b) != 0 {
				save[1+b] = true
			}
		}
		out = append(out, save)
	}
	return out
}

// runAllModes computes every mode's MTTKRP with the given tree/partition/
// memo configuration and compares against the COO reference. Factor
// matrices are fixed; the root pass runs first so memoized partials exist
// for the later modes, mirroring a CPD iteration's structure.
func runAllModes(t *testing.T, tt *tensor.Tensor, tree *csf.Tree, part *sched.Partition, save []bool, rank int, ctx string) {
	t.Helper()
	d := tt.Order()
	factors := tensor.RandomFactors(tt.Dims, rank, 12345)
	lf := LevelFactors(factors, tree.Perm())
	partials := NewPartials(tree, rank, save)

	out0 := tensor.NewMatrix(tree.Dim(0), rank)
	RootMTTKRP(tree, lf, out0, partials, part)
	want0 := Reference(tt, factors, tree.Perm()[0])
	relClose(t, out0, want0, ctx+" mode(level0)")

	for u := 1; u < d; u++ {
		buf := NewOutBuf(tree.Dim(u), rank, part.T, 0)
		buf.Reset()
		ModeMTTKRP(tree, lf, u, partials, buf, part)
		got := tensor.NewMatrix(tree.Dim(u), rank)
		buf.Reduce(got)
		want := Reference(tt, factors, tree.Perm()[u])
		relClose(t, got, want, fmt.Sprintf("%s mode(level%d) src=%d", ctx, u, partials.SourceLevel(u)))
	}
}

func TestMTTKRPAgainstReference(t *testing.T) {
	shapes := [][]int{
		{7, 9, 11},
		{4, 25, 6},
		{6, 5, 9, 8},
		{3, 4, 5, 6, 4},
		{2, 300, 5}, // two root slices: heavy boundary sharing
	}
	for _, dims := range shapes {
		tt := tensor.Random(dims, 400, nil, int64(len(dims))*7)
		d := len(dims)
		tree := csf.Build(tt, nil)
		for _, threads := range []int{1, 2, 3, 8} {
			part := sched.NewPartition(tree, threads)
			for _, save := range memoSubsets(d) {
				ctx := fmt.Sprintf("dims=%v T=%d save=%v", dims, threads, save)
				runAllModes(t, tt, tree, part, save, 5, ctx)
			}
		}
	}
}

func TestMTTKRPSlicePartition(t *testing.T) {
	tt := tensor.Random([]int{8, 12, 20, 9}, 500, []float64{1.5, 0, 0, 0}, 21)
	tree := csf.Build(tt, nil)
	for _, threads := range []int{1, 3, 6} {
		part := sched.NewSlicePartitionNNZ(tree, threads).ToPartition(tree)
		for _, save := range memoSubsets(4) {
			ctx := fmt.Sprintf("slice T=%d save=%v", threads, save)
			runAllModes(t, tt, tree, part, save, 4, ctx)
		}
	}
}

func TestMTTKRPSkewedBoundaries(t *testing.T) {
	// Heavy skew concentrates non-zeros in few fibers so thread
	// boundaries repeatedly split fibers at every level.
	tt := tensor.Random([]int{3, 5, 700}, 900, []float64{3, 2, 0}, 33)
	tree := csf.Build(tt, nil)
	for _, threads := range []int{2, 5, 13} {
		part := sched.NewPartition(tree, threads)
		for _, save := range memoSubsets(3) {
			ctx := fmt.Sprintf("skew T=%d save=%v", threads, save)
			runAllModes(t, tt, tree, part, save, 3, ctx)
		}
	}
}

func TestMTTKRPMoreThreadsThanNNZ(t *testing.T) {
	tt := tensor.Random([]int{4, 5, 6}, 7, nil, 3)
	tree := csf.Build(tt, nil)
	part := sched.NewPartition(tree, 16)
	runAllModes(t, tt, tree, part, []bool{false, true, false}, 3, "tiny")
}

func TestMTTKRPAllPerms(t *testing.T) {
	tt := tensor.Random([]int{5, 6, 7}, 90, nil, 44)
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, perm := range perms {
		tree := csf.Build(tt, perm)
		part := sched.NewPartition(tree, 4)
		runAllModes(t, tt, tree, part, []bool{false, true, false}, 4, fmt.Sprintf("perm=%v", perm))
	}
}

func TestOutBufAtomicMatchesPrivatized(t *testing.T) {
	tt := tensor.Random([]int{6, 40, 50}, 600, nil, 55)
	tree := csf.Build(tt, nil)
	part := sched.NewPartition(tree, 4)
	factors := tensor.RandomFactors(tt.Dims, 4, 9)
	lf := LevelFactors(factors, tree.Perm())
	partials := NewPartials(tree, 4, []bool{false, true, false})
	out0 := tensor.NewMatrix(tree.Dim(0), 4)
	RootMTTKRP(tree, lf, out0, partials, part)

	for u := 1; u < 3; u++ {
		priv := NewOutBuf(tree.Dim(u), 4, part.T, 1<<40) // force privatized
		priv.Reset()
		ModeMTTKRP(tree, lf, u, partials, priv, part)
		gotPriv := tensor.NewMatrix(tree.Dim(u), 4)
		priv.Reduce(gotPriv)
		if !priv.Privatized() {
			t.Fatalf("expected privatized buffer")
		}

		atom := NewOutBuf(tree.Dim(u), 4, part.T, 1) // force atomic
		atom.Reset()
		ModeMTTKRP(tree, lf, u, partials, atom, part)
		gotAtom := tensor.NewMatrix(tree.Dim(u), 4)
		atom.Reduce(gotAtom)
		if atom.Privatized() {
			t.Fatalf("expected atomic buffer")
		}
		relClose(t, gotAtom, gotPriv, fmt.Sprintf("atomic vs privatized mode %d", u))
	}
}

// privatizeCase is one input of the accumulation rule Privatize, which
// planned and legacy buffers share, with the answer the rule must give.
type privatizeCase struct {
	rows, cols, t int
	cap           int64
	want          bool
}

// checkPrivatize holds Privatize to each case and, where the output is
// small enough to allocate t copies of, NewOutBuf's legacy buffer too.
func checkPrivatize(t *testing.T, cases []privatizeCase) {
	t.Helper()
	for _, tc := range cases {
		if got := Privatize(tc.rows, tc.cols, tc.t, tc.cap); got != tc.want {
			t.Errorf("Privatize(%d, %d, %d, %d) = %v, want %v", tc.rows, tc.cols, tc.t, tc.cap, got, tc.want)
		}
		if int64(tc.rows)*int64(tc.cols)*int64(tc.t) > 1<<12 {
			continue
		}
		if got := NewOutBuf(tc.rows, tc.cols, tc.t, tc.cap).Privatized(); got != tc.want {
			t.Errorf("NewOutBuf(%d, %d, %d, %d) privatized %v, the rule says %v", tc.rows, tc.cols, tc.t, tc.cap, got, tc.want)
		}
	}
}

// TestPrivatizeSingleThread: one thread always privatizes, even under a
// one-element cap that fits no output, because it pays no reduction; two
// threads under the same cap do not.
func TestPrivatizeSingleThread(t *testing.T) {
	checkPrivatize(t, []privatizeCase{
		{100, 8, 1, 1, true},
		{40, 8, 1, 1, true},
		{math.MaxInt32, 64, 1, 1, true},
		{3, 8, 2, 1, false},
		{40, 8, 2, 1, false},
	})
}

// TestPrivatizeOverCap: an output whose t copies exceed the cap is not
// privatized, whether the cap is given or defaulted (cap <= 0), and the
// footprint of a huge output does not overflow into a false fit.
func TestPrivatizeOverCap(t *testing.T) {
	checkPrivatize(t, []privatizeCase{
		{1_000_000, 16, 8, 0, false},
		{1<<20 + 1, 2, 8, 0, false},
		{math.MaxInt32, 64, 8, 1 << 39, false},
		{40, 8, 4, 40*8*4 - 1, false},
	})
}

// TestPrivatizeUnderCap: t copies that fit the cap exactly privatize and
// one element more does not, with the cap given or defaulted.
func TestPrivatizeUnderCap(t *testing.T) {
	const rows, cols, threads = 2_000_000, 8, 8
	foot := int64(rows * cols * threads)
	checkPrivatize(t, []privatizeCase{
		{rows, cols, threads, foot, true},
		{rows, cols, threads, foot - 1, false},
		{1 << 20, 2, 8, 0, true},
		{math.MaxInt32, 64, 8, math.MaxInt64, true},
		{40, 8, 4, 40 * 8 * 4, true},
		{40, 8, 4, 0, true},
	})
}

func TestOutBufResetReuse(t *testing.T) {
	b := NewOutBuf(3, 2, 2, 0)
	b.AddScaled(0, 1, 2.0, []float64{1, 1})
	out := tensor.NewMatrix(3, 2)
	b.Reduce(out)
	if out.At(1, 0) != 2 {
		t.Fatalf("AddScaled lost: %v", out.Data)
	}
	b.Reset()
	b.Reduce(out)
	for _, v := range out.Data {
		if v != 0 {
			t.Fatalf("Reset did not clear buffer: %v", out.Data)
		}
	}
}

func TestReferenceSmallKnown(t *testing.T) {
	// 2x2x2 tensor with a single non-zero at (1,0,1) value 3.
	tt := tensor.New([]int{2, 2, 2}, 1)
	tt.Append([]int32{1, 0, 1}, 3)
	factors := []*tensor.Matrix{
		tensor.NewMatrix(2, 2), tensor.NewMatrix(2, 2), tensor.NewMatrix(2, 2),
	}
	for _, f := range factors {
		for i := range f.Data {
			f.Data[i] = float64(i + 1)
		}
	}
	// Mode-0 MTTKRP: out[1,r] = 3 * B[0,r] * C[1,r].
	out := Reference(tt, factors, 0)
	for r := 0; r < 2; r++ {
		want := 3 * factors[1].At(0, r) * factors[2].At(1, r)
		if out.At(1, r) != want {
			t.Errorf("out[1,%d] = %g, want %g", r, out.At(1, r), want)
		}
		if out.At(0, r) != 0 {
			t.Errorf("out[0,%d] = %g, want 0", r, out.At(0, r))
		}
	}
}

// TestMTTKRPQuick property-tests the full kernel stack on random shapes,
// thread counts and memo subsets.
func TestMTTKRPQuick(t *testing.T) {
	f := func(seed int64, dRaw, tRaw, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 3 + int(dRaw)%2
		dims := make([]int, d)
		for i := range dims {
			dims[i] = 2 + rng.Intn(10)
		}
		space := 1
		for _, n := range dims {
			space *= n
		}
		nnz := 60 + rng.Intn(100)
		if nnz > space {
			nnz = space
		}
		tt := tensor.Random(dims, nnz, nil, seed)
		tree := csf.Build(tt, nil)
		threads := 1 + int(tRaw)%6
		part := sched.NewPartition(tree, threads)
		subsets := memoSubsets(d)
		save := subsets[int(mRaw)%len(subsets)]

		rank := 3
		factors := tensor.RandomFactors(tt.Dims, rank, seed+1)
		lf := LevelFactors(factors, tree.Perm())
		partials := NewPartials(tree, rank, save)
		out0 := tensor.NewMatrix(tree.Dim(0), rank)
		RootMTTKRP(tree, lf, out0, partials, part)
		want0 := Reference(tt, factors, tree.Perm()[0])
		if out0.MaxAbsDiff(want0) > tol*(1+want0.NormFrobenius()) {
			return false
		}
		for u := 1; u < d; u++ {
			buf := NewOutBuf(tree.Dim(u), rank, threads, 0)
			buf.Reset()
			ModeMTTKRP(tree, lf, u, partials, buf, part)
			got := tensor.NewMatrix(tree.Dim(u), rank)
			buf.Reduce(got)
			want := Reference(tt, factors, tree.Perm()[u])
			if got.MaxAbsDiff(want) > tol*(1+want.NormFrobenius()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
