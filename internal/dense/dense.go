// Package dense provides the small dense linear-algebra kernels CPD-ALS
// needs around the sparse MTTKRP: Gram matrices, Hadamard products,
// symmetric positive-definite solves and column normalisation. All matrices
// are tensor.Matrix values (row-major).
//
// The kernels whose work grows with the factor rows (solve, normalise,
// Gram) are single-threaded calls into the two blocked row passes of
// update.go, which Updater runs fused and row-parallel as one ALS factor
// update. Where the CPU has AVX2 and the build is not a race build, both
// run the passes' AVX2 forms (lanes.go, lanes_amd64.s), which give the Go
// passes' bits and write a factor row whose MTTKRP row is all +0 as +0
// without solving it. The Go passes stay the portable path, the race-build
// path and the contract tests' oracle.
package dense

import (
	"fmt"
	"math"

	"stef/internal/tensor"
)

// Gram computes A'A into out (R×R where R = A.Cols). If out is nil a new
// matrix is allocated. It returns out.
func Gram(a *tensor.Matrix, out *tensor.Matrix) *tensor.Matrix {
	r := a.Cols
	if out == nil {
		out = tensor.NewMatrix(r, r)
	}
	if out.Rows != r || out.Cols != r {
		panic(fmt.Sprintf("dense: Gram output shape %dx%d, want %dx%d", out.Rows, out.Cols, r, r))
	}
	out.Zero()
	if rows := a.Data[:a.Rows*r]; useLanes {
		scaleLanes(rows, nil, nil, out.Data, r)
	} else {
		scalePass(rows, nil, nil, out.Data, r)
	}
	mirrorUpper(out)
	return out
}

// HadamardInto multiplies dst elementwise by src. Shapes must match.
func HadamardInto(dst, src *tensor.Matrix) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("dense: Hadamard shape mismatch %dx%d vs %dx%d", dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	for i := range dst.Data {
		dst.Data[i] *= src.Data[i]
	}
}

// Ones returns an n×n matrix of ones, the identity element of the Hadamard
// product used when accumulating Gram matrices across modes.
func Ones(n int) *tensor.Matrix {
	m := tensor.NewMatrix(n, n)
	OnesInto(m)
	return m
}

// OnesInto fills m with ones, the allocation-free form of Ones for reusable
// Hadamard accumulators.
func OnesInto(m *tensor.Matrix) {
	for i := range m.Data {
		m.Data[i] = 1
	}
}

// MatMul computes C = A·B with fresh allocation; used by tests and by the
// CPD fit computation. Shapes: (m×k)·(k×n) → m×n.
func MatMul(a, b *tensor.Matrix) *tensor.Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("dense: MatMul inner dims %d vs %d", a.Cols, b.Rows))
	}
	c := tensor.NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k := 0; k < a.Cols; k++ {
			v := arow[k]
			if v == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range crow {
				crow[j] += v * brow[j]
			}
		}
	}
	return c
}

// Cholesky holds the lower-triangular factor of a symmetric
// positive-definite matrix, for repeated right-hand-side solves.
type Cholesky struct {
	n     int
	l     []float64 // row-major lower triangle (full storage)
	lt    []float64 // its transpose, so back substitution reads rows too
	lanes []float64 // 16·n lane buffer of SolveRowsInPlace's AVX2 pass
	// finite records that every entry of l is finite, the condition under
	// which the AVX2 pass writes a +0 row as +0 without solving it.
	finite bool
}

// NewCholesky factors the symmetric matrix v, adding an escalating diagonal
// jitter if v is only positive semi-definite (which happens in CPD when
// factor columns become linearly dependent). It fails only if v contains
// non-finite entries or jitter escalation exhausts its budget.
func NewCholesky(v *tensor.Matrix) (*Cholesky, error) {
	var c Cholesky
	if err := c.Refactor(v); err != nil {
		return nil, err
	}
	return &c, nil
}

// Refactor factors v into c, reusing c's buffer when the dimension matches
// so that repeated factorisations (one per ALS mode update) allocate
// nothing. The factorisation only ever reads lower-triangle entries written
// earlier in the same attempt, so stale contents need no clearing.
func (c *Cholesky) Refactor(v *tensor.Matrix) error {
	if v.Rows != v.Cols {
		return fmt.Errorf("dense: Cholesky of non-square %dx%d", v.Rows, v.Cols)
	}
	n := v.Rows
	maxDiag := 0.0
	for i := 0; i < n; i++ {
		d := math.Abs(v.At(i, i))
		if math.IsNaN(d) || math.IsInf(d, 0) {
			//lint:allow hotpath-alloc cold error path
			return fmt.Errorf("dense: Cholesky input has non-finite diagonal")
		}
		if d > maxDiag {
			maxDiag = d
		}
	}
	if maxDiag == 0 {
		maxDiag = 1
	}
	if c.n != n || len(c.l) != n*n {
		c.n = n
		c.l = make([]float64, n*n)
		c.lt = make([]float64, n*n)
		c.lanes = make([]float64, laneRows*n)
	}
	l := c.l
	jitter := 0.0
	for attempt := 0; attempt < 40; attempt++ {
		ok := true
	factor:
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				sum := v.At(i, j)
				if i == j {
					sum += jitter
				}
				for k := 0; k < j; k++ {
					sum -= l[i*n+k] * l[j*n+k]
				}
				if i == j {
					if sum <= 0 || math.IsNaN(sum) {
						ok = false
						break factor
					}
					l[i*n+i] = math.Sqrt(sum)
				} else {
					l[i*n+j] = sum / l[j*n+j]
				}
			}
		}
		if ok {
			// v − v is +0 for a finite v and NaN otherwise, so nan stays
			// zero exactly when every entry of L is finite.
			nan := 0.0
			for i := 0; i < n; i++ {
				for k := i; k < n; k++ {
					v := l[k*n+i]
					c.lt[i*n+k] = v
					nan += v - v
				}
			}
			c.finite = nan == 0
			return nil
		}
		if jitter == 0 {
			jitter = 1e-12 * maxDiag
		} else {
			jitter *= 10
		}
	}
	return fmt.Errorf("dense: Cholesky failed even with jitter")
}

// SolveVec solves V·x = b in place (b becomes x). len(b) must equal the
// factored dimension.
func (c *Cholesky) SolveVec(b []float64) {
	if len(b) != c.n {
		panic(fmt.Sprintf("dense: SolveVec length %d, want %d", len(b), c.n))
	}
	c.solve4(b, b, b, b)
}

// SolveRowsInPlace overwrites each row b of m with the solution x of
// V·x = b, i.e. computes M·V⁻¹ for symmetric V. This is the factor-matrix
// update step of CPD-ALS (Algorithm 2, lines 3/6/9/12).
func (c *Cholesky) SolveRowsInPlace(m *tensor.Matrix) {
	if m.Cols != c.n {
		panic(fmt.Sprintf("dense: SolveRowsInPlace cols %d, want %d", m.Cols, c.n))
	}
	rows := m.Data[:m.Rows*m.Cols]
	if useLanes {
		var off [laneRows]int
		solveLanes(c, rows, nil, m.Cols, false, statNone, nil, c.lanes, off[:])
		return
	}
	solvePass(c, rows, nil, m.Cols, false, statNone, nil)
}

// NormalizeColumns scales each column of a to unit 2-norm and returns the
// norms. Zero columns get norm 1 and are left untouched, which keeps the
// ALS iteration well-defined when a factor column dies.
func NormalizeColumns(a *tensor.Matrix) []float64 {
	norms := make([]float64, a.Cols)
	NormalizeColumnsInto(a, norms)
	return norms
}

// NormalizeColumnsInto is NormalizeColumns writing the norms into a
// caller-provided slice of length a.Cols.
func NormalizeColumnsInto(a *tensor.Matrix, norms []float64) {
	if len(norms) != a.Cols {
		panic(fmt.Sprintf("dense: NormalizeColumnsInto norms length %d, want %d", len(norms), a.Cols))
	}
	normalizeColumns(a, norms, statSumSq)
}

// NormalizeColumnsMax scales each column by its max absolute value when that
// value exceeds 1 (the SPLATT convention for iterations after the first,
// which avoids shrinking factors toward zero). Returns the scaling factors.
func NormalizeColumnsMax(a *tensor.Matrix) []float64 {
	norms := make([]float64, a.Cols)
	NormalizeColumnsMaxInto(a, norms)
	return norms
}

// NormalizeColumnsMaxInto is NormalizeColumnsMax writing the scaling
// factors into a caller-provided slice of length a.Cols.
func NormalizeColumnsMaxInto(a *tensor.Matrix, norms []float64) {
	if len(norms) != a.Cols {
		panic(fmt.Sprintf("dense: NormalizeColumnsMaxInto norms length %d, want %d", len(norms), a.Cols))
	}
	normalizeColumns(a, norms, statMaxAbs)
}

// normalizeColumns is the one-thread form of the update's normalisation:
// the column statistic of pass A, its reduction, and pass B's division.
func normalizeColumns(a *tensor.Matrix, norms []float64, stat colStat) {
	if a.Cols == 0 {
		return
	}
	rows := a.Data[:a.Rows*a.Cols]
	clear(norms)
	solvePass(nil, rows, nil, a.Cols, false, stat, norms)
	reduceNorms(norms, norms, stat)
	if useLanes {
		scaleLanes(rows, nil, norms, nil, a.Cols)
		return
	}
	scalePass(rows, nil, norms, nil, a.Cols)
}
