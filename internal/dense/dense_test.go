package dense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"stef/internal/tensor"
)

func randMatrix(rows, cols int, seed int64) *tensor.Matrix {
	return tensor.RandomFactors([]int{rows}, cols, seed)[0]
}

func TestGramMatchesMatMul(t *testing.T) {
	a := randMatrix(13, 5, 1)
	g := Gram(a, nil)
	// Brute force AᵀA.
	want := tensor.NewMatrix(5, 5)
	for p := 0; p < 5; p++ {
		for q := 0; q < 5; q++ {
			s := 0.0
			for i := 0; i < 13; i++ {
				s += a.At(i, p) * a.At(i, q)
			}
			want.Set(p, q, s)
		}
	}
	if d := g.MaxAbsDiff(want); d > 1e-12 {
		t.Fatalf("Gram differs from brute force by %g", d)
	}
	// Symmetry.
	for p := 0; p < 5; p++ {
		for q := 0; q < 5; q++ {
			if g.At(p, q) != g.At(q, p) {
				t.Fatalf("Gram not symmetric at (%d,%d)", p, q)
			}
		}
	}
}

func TestGramReuseOutput(t *testing.T) {
	a := randMatrix(7, 3, 2)
	out := tensor.NewMatrix(3, 3)
	out.Data[0] = 1e9 // stale garbage must be overwritten
	Gram(a, out)
	fresh := Gram(a, nil)
	if d := out.MaxAbsDiff(fresh); d != 0 {
		t.Fatalf("reused output differs by %g", d)
	}
}

func TestCholeskySolveIdentity(t *testing.T) {
	v := tensor.NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		v.Set(i, i, 1)
	}
	c, err := NewCholesky(v)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 2, 3, 4}
	c.SolveVec(b)
	for i, want := range []float64{1, 2, 3, 4} {
		if math.Abs(b[i]-want) > 1e-14 {
			t.Fatalf("identity solve changed b: %v", b)
		}
	}
}

func TestCholeskySolveRandomSPD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		// Build SPD V = AᵀA + I.
		a := tensor.NewMatrix(n+3, n)
		for i := range a.Data {
			a.Data[i] = rng.Float64()
		}
		v := Gram(a, nil)
		for i := 0; i < n; i++ {
			v.Set(i, i, v.At(i, i)+1)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		// b = V·x
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b[i] += v.At(i, j) * x[j]
			}
		}
		c, err := NewCholesky(v)
		if err != nil {
			return false
		}
		c.SolveVec(b)
		for i := range x {
			if math.Abs(b[i]-x[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskySingularGetsJitter(t *testing.T) {
	// Rank-1 V: positive semi-definite, singular.
	v := tensor.NewMatrix(3, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			v.Set(i, j, float64((i+1)*(j+1)))
		}
	}
	c, err := NewCholesky(v)
	if err != nil {
		t.Fatalf("jittered Cholesky failed: %v", err)
	}
	b := []float64{1, 2, 3}
	c.SolveVec(b) // must not NaN
	for _, x := range b {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("solve produced non-finite %v", b)
		}
	}
}

func TestCholeskyRejectsNaN(t *testing.T) {
	v := tensor.NewMatrix(2, 2)
	v.Set(0, 0, math.NaN())
	if _, err := NewCholesky(v); err == nil {
		t.Fatal("expected error on NaN input")
	}
}

func TestSolveRowsInPlace(t *testing.T) {
	a := randMatrix(9, 4, 3)
	v := Gram(a, nil)
	for i := 0; i < 4; i++ {
		v.Set(i, i, v.At(i, i)+0.5)
	}
	c, err := NewCholesky(v)
	if err != nil {
		t.Fatal(err)
	}
	b := randMatrix(6, 4, 4)
	want := make([][]float64, 6)
	for i := range want {
		want[i] = append([]float64(nil), b.Row(i)...)
		c.SolveVec(want[i])
	}
	c2, _ := NewCholesky(v)
	c2.SolveRowsInPlace(b)
	for i := range want {
		for j := range want[i] {
			if math.Abs(b.At(i, j)-want[i][j]) > 1e-12 {
				t.Fatalf("row %d differs", i)
			}
		}
	}
}

func TestNormalizeColumns(t *testing.T) {
	a := randMatrix(10, 3, 5)
	orig := a.Clone()
	norms := NormalizeColumns(a)
	for j := 0; j < 3; j++ {
		s := 0.0
		for i := 0; i < 10; i++ {
			s += a.At(i, j) * a.At(i, j)
		}
		if math.Abs(math.Sqrt(s)-1) > 1e-12 {
			t.Errorf("column %d norm %g after normalisation", j, math.Sqrt(s))
		}
		// Reconstruction: a[:,j]*norm == orig[:,j].
		for i := 0; i < 10; i++ {
			if math.Abs(a.At(i, j)*norms[j]-orig.At(i, j)) > 1e-12 {
				t.Fatalf("normalisation lost information at (%d,%d)", i, j)
			}
		}
	}
}

func TestNormalizeColumnsZeroColumn(t *testing.T) {
	a := tensor.NewMatrix(4, 2)
	for i := 0; i < 4; i++ {
		a.Set(i, 0, float64(i))
	}
	norms := NormalizeColumns(a)
	if norms[1] != 1 {
		t.Errorf("zero column norm %g, want 1", norms[1])
	}
	for i := 0; i < 4; i++ {
		if a.At(i, 1) != 0 {
			t.Errorf("zero column modified")
		}
	}
}

func TestNormalizeColumnsMax(t *testing.T) {
	a := tensor.NewMatrix(3, 2)
	a.Set(0, 0, -4)
	a.Set(1, 0, 2)
	a.Set(0, 1, 0.5) // max < 1: must not scale up
	norms := NormalizeColumnsMax(a)
	if norms[0] != 4 {
		t.Errorf("col 0 scale %g, want 4", norms[0])
	}
	if norms[1] != 1 {
		t.Errorf("col 1 scale %g, want 1 (never scale up)", norms[1])
	}
	if a.At(0, 0) != -1 {
		t.Errorf("col 0 not scaled: %g", a.At(0, 0))
	}
	if a.At(0, 1) != 0.5 {
		t.Errorf("col 1 changed: %g", a.At(0, 1))
	}
}

func TestMatMulKnown(t *testing.T) {
	a := tensor.NewMatrix(2, 3)
	b := tensor.NewMatrix(3, 2)
	copy(a.Data, []float64{1, 2, 3, 4, 5, 6})
	copy(b.Data, []float64{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul[%d] = %g, want %g", i, c.Data[i], w)
		}
	}
}

func TestHadamardIntoAndOnes(t *testing.T) {
	a := Ones(3)
	b := tensor.NewMatrix(3, 3)
	for i := range b.Data {
		b.Data[i] = float64(i)
	}
	HadamardInto(a, b)
	if d := a.MaxAbsDiff(b); d != 0 {
		t.Fatalf("Ones ⊙ b != b (diff %g)", d)
	}
}
