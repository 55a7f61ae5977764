package dense

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"stef/internal/cpu"
	"stef/internal/tensor"
)

// The AVX2 passes are held to the Go passes, which stay the oracle: same
// bits everywhere, except that any NaN matches any NaN (the lanes and the
// scalar unit may propagate different NaN payloads). The tests call the
// assembly directly, so they run in race builds too.

// updaterWith is NewUpdater on the AVX2 passes when lanes is set and on
// the Go passes otherwise, whatever useLanes selects.
func updaterWith(r, t int, lanes bool) *Updater {
	u := NewUpdater(r, t)
	u.lanes = lanes
	return u
}

// lanesOrSkip skips the test where the CPU has no AVX2.
func lanesOrSkip(t *testing.T) {
	t.Helper()
	if !cpu.AVX2 {
		t.Skip("no AVX2 on this CPU or GOARCH")
	}
}

// bitEqual requires identical bits, except that any NaN matches any NaN.
func bitEqual(t *testing.T, got, want []float64, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", ctx, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// upper returns g (r×r, then any guard elements) with the strict lower
// triangle zeroed: a Gram partial's result is its upper triangle.
func upper(g []float64, r int) []float64 {
	u := slices.Clone(g)
	for p := 0; p < r; p++ {
		clear(u[p*r : p*r+p])
	}
	return u
}

// edgeValues are the IEEE cases a lane could round, flush or propagate
// differently from the scalar unit.
var edgeValues = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1030, -0x1.8p-1040, // subnormals
	0x1p-1022, // the smallest normal
	math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// Input flavours of laneInput.
const (
	flavourClean   = iota // special rows only
	flavourEdge           // special rows, plus edge values in some rows
	flavourClamped        // rows whose solution is all negative
	flavourBadL           // an infinite entry in L: no row may be skipped
	flavours
)

// laneInput builds a factored V and an MTTKRP-like right-hand side with
// the rows the skip and the clamp must get right: all +0, all −0, zero in
// only some columns, subnormal, and (by flavour) edge values, rows that
// only the clamp zeroes, or a non-finite L.
func laneInput(rows, r, flavour int, seed int64) (*Cholesky, *tensor.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	c, x := updateCase(rows, r, 0.5, false, seed)
	if flavour == flavourBadL && r > 1 {
		c.l[r] = math.Inf(1) // l[1][0]
		c.lt[1] = math.Inf(1)
		c.finite = false
	}
	for i := 0; i < rows; i++ {
		row := x.Row(i)
		switch i % 7 {
		case 1, 4:
			clear(row)
		case 3:
			for p := range row {
				row[p] = math.Copysign(0, -1)
			}
		case 5:
			for p := range row {
				if p%2 == 0 {
					row[p] = math.Copysign(0, float64(p%4-1))
				}
			}
		case 6:
			row[rng.Intn(r)] = 0x1p-1060
		}
		switch {
		case flavour == flavourEdge && i%5 == 2:
			row[rng.Intn(r)] = edgeValues[rng.Intn(len(edgeValues))]
		case flavour == flavourClamped && i%3 == 0:
			// x = s·V for an all-negative s: the solve gives about s, and
			// the clamp turns the whole row into +0.
			s := make([]float64, r)
			for p := range s {
				s[p] = -0.5 - rng.Float64()
			}
			for q := range row {
				row[q] = 0
				for p := range s {
					row[q] += s[p] * lvt(c, p, q)
				}
			}
		}
	}
	return c, x
}

// lvt returns (L·Lᵀ)[p][q] from the factor.
func lvt(c *Cholesky, p, q int) float64 {
	n, v := c.n, 0.0
	for k := 0; k <= min(p, q); k++ {
		v += c.l[p*n+k] * c.l[q*n+k]
	}
	return v
}

// TestLanesMatchGoPasses runs the whole update on the Go and the AVX2
// passes and requires the same bits in the factor, norms, Gram and inner
// product: every R from 1 to 70, row counts 0–40 and 66, thread blocks for
// T of 1, 2, 3 and 8, TwoNorm and NonNegative each on and off, and every
// input flavour. The update solves in place, from the MTTKRP x.
func TestLanesMatchGoPasses(t *testing.T) {
	lanesOrSkip(t)
	rowCounts := []int{66}
	for n := 0; n <= 40; n++ {
		rowCounts = append(rowCounts, n)
	}
	threads := []int{1, 2, 3, 8}
	k := 0
	for r := 1; r <= 70; r++ {
		for _, rows := range rowCounts {
			k++
			nt := threads[k%len(threads)]
			mode := k / len(threads) // every (T, options) pair recurs
			opts := UpdateOptions{TwoNorm: mode&1 != 0, NonNegative: mode&2 != 0}
			flavour := (k / 32) % flavours
			ctx := fmt.Sprintf("R=%d rows=%d T=%d %+v flavour=%d", r, rows, nt, opts, flavour)
			c, x := laneInput(rows, r, flavour, int64(k))

			run := func(lanes bool) ([]float64, []float64, []float64, float64) {
				a := x.Clone()
				norms, gram := make([]float64, r), tensor.NewMatrix(r, r)
				inner := updaterWith(r, nt, lanes).Update(c, a, opts, norms, gram)
				return a.Data, norms, gram.Data, inner
			}
			wantA, wantN, wantG, wantI := run(false)
			gotA, gotN, gotG, gotI := run(true)
			bitEqual(t, gotA, wantA, ctx+" factor")
			bitEqual(t, gotN, wantN, ctx+" norms")
			bitEqual(t, gotG, wantG, ctx+" gram")
			bitEqual(t, []float64{gotI}, []float64{wantI}, ctx+" inner")
		}
	}
}

// TestLanePassesStayInTheirRows calls the AVX2 passes directly on a row
// block in the middle of a larger array, next to the Go passes on the same
// block: both must write the same bits (in the Gram partial, its upper
// triangle) and pass A must return the same inner product, and neither may
// touch an element outside the block, at every R from 1 to 70 (with and
// without each option).
func TestLanePassesStayInTheirRows(t *testing.T) {
	lanesOrSkip(t)
	const guard = 5
	for r := 1; r <= 70; r++ {
		for _, rows := range []int{1, 3, 15, 16, 17, 33} {
			seed := int64(100*r + rows)
			c, x := laneInput(rows, r, int(seed)%flavours, seed)
			size := (rows + 2*guard) * r
			lo, hi := guard*r, (guard+rows)*r
			rng := rand.New(rand.NewSource(seed))
			around := make([]float64, size)
			for i := range around {
				around[i] = rng.NormFloat64()
			}
			for variant := 0; variant < 8; variant++ {
				ctx := fmt.Sprintf("R=%d rows=%d variant=%d", r, rows, variant)
				nonNeg := variant&1 != 0
				stat := []colStat{statNone, statSumSq, statMaxAbs}[variant%3]
				want, got := slices.Clone(around), slices.Clone(around)
				copy(want[lo:hi], x.Data)
				copy(got[lo:hi], x.Data)
				wantSt, gotSt := make([]float64, r+guard), make([]float64, r+guard)
				wantI := solvePass(c, want[lo:hi], r, nonNeg, stat, wantSt[:r], make([]float64, 4*r))
				b, off := make([]float64, laneRows*r), make([]int, laneRows)
				gotI := solveLanes(c, got[lo:hi], r, nonNeg, stat, gotSt[:r], b, off)
				bitEqual(t, got, want, ctx+" pass A rows")
				bitEqual(t, gotSt, wantSt, ctx+" pass A statistic")
				bitEqual(t, []float64{gotI}, []float64{wantI}, ctx+" pass A inner")

				norms := make([]float64, r)
				for p := range norms {
					norms[p] = 1 + rng.Float64()
				}
				if variant&4 != 0 {
					norms = nil
				}
				wantG, gotG := make([]float64, r*r+guard), make([]float64, r*r+guard)
				scalePass(want[lo:hi], norms, wantG[:r*r], r)
				scaleLanes(got[lo:hi], norms, gotG[:r*r], r)
				bitEqual(t, got, want, ctx+" pass B rows")
				bitEqual(t, upper(gotG, r), wantG, ctx+" pass B gram")
			}
		}
	}
}

// TestLaneSkipGuards pins the conditions under which a +0 row is skipped:
// Refactor marks a finite factor, but through a non-finite L a +0 row's
// solve is NaN, and divided by a NaN norm it is NaN, so both passes must
// solve and divide it like any other row.
func TestLaneSkipGuards(t *testing.T) {
	lanesOrSkip(t)
	for _, r := range []int{1, 2, 5, 16, 20, 32, 64} {
		c, x := updateCase(20, r, 0.5, false, int64(r))
		if !c.finite {
			t.Fatalf("R=%d: Refactor of a finite positive-definite V did not mark its factor finite", r)
		}
		clear(x.Row(3))
		clear(x.Row(17))
		l := slices.Clone(c.l)
		c.l[0], c.lt[0] = math.Inf(1), math.Inf(1)
		if r > 1 {
			c.l[r], c.lt[1] = math.Inf(1), math.Inf(1)
		}
		c.finite = false
		ctx := fmt.Sprintf("R=%d", r)
		want, got := x.Clone(), x.Clone()
		wantI := solvePass(c, want.Data, r, false, statNone, nil, make([]float64, 4*r))
		b, off := make([]float64, laneRows*r), make([]int, laneRows)
		gotI := solveLanes(c, got.Data, r, false, statNone, nil, b, off)
		bitEqual(t, got.Data, want.Data, ctx+" solve through a non-finite L")
		bitEqual(t, []float64{gotI}, []float64{wantI}, ctx+" inner through a non-finite L")
		if r > 1 && !math.IsNaN(got.At(3, 1)) {
			t.Fatalf("%s: a +0 row solved through an infinite L gave %v, want NaN", ctx, got.At(3, 1))
		}
		copy(c.l, l)

		norms := make([]float64, r)
		for p := range norms {
			norms[p] = 2
		}
		norms[r/2] = math.NaN()
		want, got = x.Clone(), x.Clone()
		wantG, gotG := make([]float64, r*r), make([]float64, r*r)
		scalePass(want.Data, norms, wantG, r)
		scaleLanes(got.Data, norms, gotG, r)
		bitEqual(t, got.Data, want.Data, ctx+" divide by a NaN norm")
		bitEqual(t, upper(gotG, r), wantG, ctx+" gram after a NaN norm")
		if !math.IsNaN(got.At(3, r/2)) {
			t.Fatalf("%s: a +0 row divided by a NaN norm gave %v, want NaN", ctx, got.At(3, r/2))
		}
	}
}

// TestLaneSelection pins the selection rule of every Updater and of the
// one-thread kernels: the AVX2 passes where the CPU runs them, except in
// race builds, which keep the Go passes.
func TestLaneSelection(t *testing.T) {
	if want := cpu.AVX2 && !cpu.RaceBuild; useLanes != want {
		t.Fatalf("useLanes = %v, want %v", useLanes, want)
	}
	for _, nt := range []int{1, 2, 8} {
		u := NewUpdater(16, nt)
		if u.lanes != useLanes || len(u.b) != nt*laneRows*16 || len(u.off) != nt*laneRows {
			t.Fatalf("NewUpdater(16, %d): lanes %v with %d lane values and %d offsets", nt, u.lanes, len(u.b), len(u.off))
		}
	}
}

// TestGramStreamMatchesGram holds GramStream to Gram bit for bit on both
// paths, with the matrix's rows added in blocks of several sizes: on the
// AVX2 path partial groups of non-+0 rows then span block boundaries, and
// the +0, −0 and partly zero rows of laneInput exercise the skip.
func TestGramStreamMatchesGram(t *testing.T) {
	defer func(v bool) { useLanes = v }(useLanes)
	for _, lanes := range []bool{false, true} {
		if lanes && !cpu.AVX2 {
			continue
		}
		useLanes = lanes
		for _, r := range []int{1, 3, 5, 16, 32} {
			for _, rows := range []int{0, 1, 5, 37, 130} {
				_, x := laneInput(rows, r, flavourClean, int64(rows*r+1))
				want := Gram(x, nil)
				for _, block := range []int{4, 8, 12, 64, 1 << 20} {
					got := tensor.NewMatrix(r, r)
					for i := range got.Data {
						got.Data[i] = math.NaN() // stale values the stream must overwrite
					}
					var s GramStream
					s.Start(got)
					for lo := 0; lo < rows; lo += block {
						s.Add(x.Data[lo*r : min(lo+block, rows)*r])
					}
					s.Finish()
					bitEqual(t, got.Data, want.Data, fmt.Sprintf("lanes %v, R %d, %d rows in blocks of %d", lanes, r, rows, block))
				}
			}
		}
	}
	useLanes = false
	defer func() {
		if recover() == nil {
			t.Error("Go path: a block after one that ended inside a group of four rows was accepted")
		}
	}()
	var s GramStream
	s.Start(tensor.NewMatrix(2, 2))
	s.Add(make([]float64, 2*3))
	s.Add(make([]float64, 2*4))
}
