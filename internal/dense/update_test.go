package dense

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"stef/internal/cpu"
	"stef/internal/tensor"
)

// The reference below is the unfused per-mode sequence cpd.RunWith ran
// before Updater: CopyFrom → per-row SolveVec (back substitution down the
// columns of L) → clamp → NormalizeColumns{,Max}Into → Gram, plus the
// fit's inner product. It is kept verbatim as the oracle the fused,
// row-parallel update is pinned against.

func refSolveVec(c *Cholesky, b []float64) {
	n, l := c.n, c.l
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l[i*n+k] * b[k]
		}
		b[i] = sum / l[i*n+i]
	}
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for k := i + 1; k < n; k++ {
			sum -= l[k*n+i] * b[k]
		}
		b[i] = sum / l[i*n+i]
	}
}

func refNormalize(a *tensor.Matrix, norms []float64, twoNorm bool) {
	for j := range norms {
		norms[j] = 0
	}
	for i := 0; i < a.Rows; i++ {
		for j, v := range a.Row(i) {
			if twoNorm {
				norms[j] += v * v
			} else if av := math.Abs(v); av > norms[j] {
				norms[j] = av
			}
		}
	}
	for j := range norms {
		if twoNorm {
			norms[j] = math.Sqrt(norms[j])
			if norms[j] == 0 {
				norms[j] = 1
			}
		} else if norms[j] < 1 {
			norms[j] = 1
		}
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for j := range row {
			row[j] /= norms[j]
		}
	}
}

func refGram(a, out *tensor.Matrix) {
	r := a.Cols
	out.Zero()
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for p := 0; p < r; p++ {
			vp := row[p]
			if vp == 0 {
				continue
			}
			orow := out.Row(p)
			for q := p; q < r; q++ {
				orow[q] += vp * row[q]
			}
		}
	}
	for p := 0; p < r; p++ {
		for q := p + 1; q < r; q++ {
			out.Set(q, p, out.At(p, q))
		}
	}
}

// refUpdate is the unfused update cpd.RunWith used to run for one mode.
func refUpdate(c *Cholesky, a, x *tensor.Matrix, opts UpdateOptions, norms []float64, gram *tensor.Matrix) float64 {
	a.CopyFrom(x)
	for i := 0; i < a.Rows; i++ {
		refSolveVec(c, a.Row(i))
	}
	if opts.NonNegative {
		for i, v := range a.Data {
			if v < 0 {
				a.Data[i] = 0
			}
		}
	}
	refNormalize(a, norms, opts.TwoNorm)
	refGram(a, gram)
	if !opts.Inner {
		return 0
	}
	inner := 0.0
	for i := 0; i < a.Rows; i++ {
		ar, xr := a.Row(i), x.Row(i)
		for p := range ar {
			inner += xr[p] * ar[p] * norms[p]
		}
	}
	return inner
}

// updateCase builds a factored V and an MTTKRP-like right-hand side. With
// zeroCol, V is diagonal and one column of x is zero, so the solved factor
// has a dead column whose norm must come out as 1.
func updateCase(rows, r int, reg float64, zeroCol bool, seed int64) (*Cholesky, *tensor.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	v := tensor.NewMatrix(r, r)
	if zeroCol {
		for p := 0; p < r; p++ {
			v.Set(p, p, 0.5+rng.Float64())
		}
	} else {
		b := tensor.NewMatrix(r+3, r)
		b.Randomize(rng)
		v = Gram(b, nil)
	}
	for p := 0; p < r; p++ {
		v.Set(p, p, v.At(p, p)+reg)
	}
	c, err := NewCholesky(v)
	if err != nil {
		panic(err)
	}
	x := tensor.NewMatrix(rows, r)
	for i := range x.Data {
		x.Data[i] = 4*rng.Float64() - 1.5
	}
	if zeroCol {
		for i := 0; i < rows; i++ {
			x.Set(i, r/2, 0)
		}
	}
	return c, x
}

// relDiff is the largest elementwise difference relative to want's
// largest magnitude (1 when want is all zero).
func relDiff(got, want []float64) float64 {
	scale, d := 0.0, 0.0
	for i, w := range want {
		scale = math.Max(scale, math.Abs(w))
		d = math.Max(d, math.Abs(got[i]-w))
	}
	if scale == 0 {
		scale = 1
	}
	return d / scale
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestUpdateMatchesUnfusedSequence pins the fused update against the
// unfused reference: bit-identical on one thread, within 1e-12 relative on
// 2, 3 and 8, across row counts below T, at T-1, and off the four-row
// block, ranks 1 to 64, and every option — clamping, ridge, the first
// iteration's 2-norm, the fit's inner product and a dead column.
func TestUpdateMatchesUnfusedSequence(t *testing.T) {
	type variant struct {
		opts    UpdateOptions
		reg     float64
		zeroCol bool
	}
	variants := []variant{
		{UpdateOptions{}, 0, false},
		{UpdateOptions{TwoNorm: true, Inner: true}, 0, false},
		{UpdateOptions{NonNegative: true, Inner: true}, 0, false},
		{UpdateOptions{NonNegative: true, TwoNorm: true}, 0.5, false},
		{UpdateOptions{Inner: true}, 1e-3, false},
		{UpdateOptions{TwoNorm: true, Inner: true}, 0, true},
		{UpdateOptions{}, 0, true},
	}
	seed := int64(0)
	for _, threads := range []int{1, 2, 3, 8} {
		for _, r := range []int{1, 3, 20, 32, 64} {
			for _, rows := range []int{0, 1, 3, threads - 1, 5, 7, 13, 66} {
				for vi, vt := range variants {
					seed++
					name := fmt.Sprintf("T%d/R%d/rows%d/v%d", threads, r, rows, vi)
					c, x := updateCase(rows, r, vt.reg, vt.zeroCol && r > 1, seed)
					want := tensor.NewMatrix(rows, r)
					wantNorms := make([]float64, r)
					wantGram := tensor.NewMatrix(r, r)
					wantInner := refUpdate(c, want, x, vt.opts, wantNorms, wantGram)

					u := NewUpdater(r, threads)
					got := tensor.NewMatrix(rows, r)
					for i := range got.Data {
						got.Data[i] = 7 // stale contents must not leak through
					}
					gotNorms := make([]float64, r)
					gotGram := tensor.NewMatrix(r, r)
					gotGram.Data[0] = 1e9
					gotInner := u.Update(c, got, x, vt.opts, gotNorms, gotGram)

					if threads == 1 {
						if !sameBits(got.Data, want.Data) || !sameBits(gotNorms, wantNorms) ||
							!sameBits(gotGram.Data, wantGram.Data) || !sameBits([]float64{gotInner}, []float64{wantInner}) {
							t.Fatalf("%s: one-thread update is not bit-identical to the unfused sequence", name)
						}
						continue
					}
					for what, d := range map[string]float64{
						"factor": relDiff(got.Data, want.Data),
						"norms":  relDiff(gotNorms, wantNorms),
						"gram":   relDiff(gotGram.Data, wantGram.Data),
						"inner":  relDiff([]float64{gotInner}, []float64{wantInner}),
					} {
						if !(d <= 1e-12) {
							t.Fatalf("%s: %s differs from the unfused sequence by %g relative", name, what, d)
						}
					}
					if vt.zeroCol && r > 1 && gotNorms[r/2] != 1 {
						t.Fatalf("%s: dead column norm %g, want 1", name, gotNorms[r/2])
					}

					// A fixed T is deterministic: a second update on the
					// same inputs reproduces every bit.
					again := tensor.NewMatrix(rows, r)
					againNorms := make([]float64, r)
					againGram := tensor.NewMatrix(r, r)
					againInner := u.Update(c, again, x, vt.opts, againNorms, againGram)
					if !sameBits(again.Data, got.Data) || !sameBits(againNorms, gotNorms) ||
						!sameBits(againGram.Data, gotGram.Data) || againInner != gotInner {
						t.Fatalf("%s: repeated update on %d threads is not deterministic", name, threads)
					}
				}
			}
		}
	}
}

// TestOneThreadKernelsMatchReference pins the single-threaded public
// kernels, now calls into the blocked passes, bit-identical to the
// unfused reference.
func TestOneThreadKernelsMatchReference(t *testing.T) {
	for _, r := range []int{1, 3, 20, 32, 64} {
		for _, rows := range []int{0, 1, 3, 4, 5, 13} {
			c, x := updateCase(rows, r, 0, false, int64(100*r+rows))
			want := x.Clone()
			for i := 0; i < rows; i++ {
				refSolveVec(c, want.Row(i))
			}
			got := x.Clone()
			c.SolveRowsInPlace(got)
			if !sameBits(got.Data, want.Data) {
				t.Fatalf("R=%d rows=%d: SolveRowsInPlace differs from per-row SolveVec", r, rows)
			}
			if rows > 0 {
				b := append([]float64(nil), x.Row(0)...)
				c.SolveVec(b)
				if !sameBits(b, want.Row(0)) {
					t.Fatalf("R=%d: SolveVec differs from the reference", r)
				}
			}

			wantG, gotG := tensor.NewMatrix(r, r), tensor.NewMatrix(r, r)
			refGram(x, wantG)
			Gram(x, gotG)
			if !sameBits(gotG.Data, wantG.Data) {
				t.Fatalf("R=%d rows=%d: Gram differs from the reference", r, rows)
			}

			for _, twoNorm := range []bool{false, true} {
				want, got := x.Clone(), x.Clone()
				wantN, gotN := make([]float64, r), make([]float64, r)
				refNormalize(want, wantN, twoNorm)
				if twoNorm {
					NormalizeColumnsInto(got, gotN)
				} else {
					NormalizeColumnsMaxInto(got, gotN)
				}
				if !sameBits(got.Data, want.Data) || !sameBits(gotN, wantN) {
					t.Fatalf("R=%d rows=%d twoNorm=%v: normalisation differs from the reference", r, rows, twoNorm)
				}
			}
		}
	}
}

// BenchmarkDenseUpdate times one mode's dense update on the long-mode
// shape of the delicious profile (170k rows): the unfused reference at
// R=32, then the fused update on the Go and the AVX2 passes at R of 16, 32
// and 64, with no empty rows and with 17% of the MTTKRP rows all +0
// (delicious' mode-1 share), on one and two threads.
func BenchmarkDenseUpdate(b *testing.B) {
	const rows = 170000
	opts := UpdateOptions{Inner: true}
	{
		const r = 32
		c, x := updateCase(rows, r, 0, false, 1)
		a, norms, gram := tensor.NewMatrix(rows, r), make([]float64, r), tensor.NewMatrix(r, r)
		b.Run("unfused", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				refUpdate(c, a, x, opts, norms, gram)
			}
		})
	}
	passes := []struct {
		name  string
		lanes bool
	}{{"go", false}, {"avx2", true}}
	for _, r := range []int{16, 32, 64} {
		c, x := updateCase(rows, r, 0, false, 1)
		a, norms, gram := tensor.NewMatrix(rows, r), make([]float64, r), tensor.NewMatrix(r, r)
		for _, empty := range []int{0, 17} {
			if empty > 0 {
				// Every sixth row is empty: 16.7%.
				for i := 0; i < rows; i += 6 {
					clear(x.Row(i))
				}
			}
			for _, ps := range passes {
				if ps.lanes && !cpu.AVX2 {
					continue
				}
				for _, threads := range []int{1, 2} {
					u := updaterWith(r, threads, ps.lanes)
					b.Run(fmt.Sprintf("%s/R%d/empty%d/T%d", ps.name, r, empty, threads), func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							u.Update(c, a, x, opts, norms, gram)
						}
					})
				}
			}
		}
	}
}
