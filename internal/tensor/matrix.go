package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix. Factor matrices in CPD are Matrix
// values with Cols equal to the decomposition rank R.
type Matrix struct {
	Rows, Cols int
	// Data holds Rows*Cols elements, row-major.
	Data []float64
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Row returns row i as a subslice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Zero sets every element to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: append([]float64(nil), m.Data...)}
}

// CopyFrom copies src into m. Shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// NormFrobenius returns the Frobenius norm.
func (m *Matrix) NormFrobenius() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbsDiff returns the maximum absolute elementwise difference between m
// and other. Shapes must match.
func (m *Matrix) MaxAbsDiff(other *Matrix) float64 {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("tensor: MaxAbsDiff shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	d := 0.0
	for i, v := range m.Data {
		if diff := math.Abs(v - other.Data[i]); diff > d {
			d = diff
		}
	}
	return d
}
