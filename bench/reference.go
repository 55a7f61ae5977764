package main

import (
	"fmt"
	"math"

	"stef/internal/kernels"
	"stef/internal/tensor"
)

// fitTol bounds how far a solve's fit may stray from the reference fit.
// The two differ only in rounding; on every workload they agree to about
// 1e-14.
const fitTol = 1e-9

// referenceFits runs plain CPD-ALS on t, written out here apart from the
// library's driver and dense kernels: every MTTKRP from kernels.Reference,
// V as the Hadamard product of the other modes' Gram matrices, a Cholesky
// solve for each factor, and unit 2-norm columns with weights λ. It starts
// from the library's random factors for seed, updates the modes in order
// and returns the fit after each of iters iterations. The model after an
// update does not depend on how the columns are scaled, so in exact
// arithmetic these are the fits of any correct ALS solve from that start.
func referenceFits(t *tensor.Tensor, rank int, order []int, seed int64, iters int) ([]float64, error) {
	factors := tensor.RandomFactors(t.Dims, rank, seed)
	grams := make([]*tensor.Matrix, len(factors))
	for m, f := range factors {
		grams[m] = gram(f)
	}
	lambda := make([]float64, rank)
	normX := t.NormFrobenius()
	var fits []float64
	for it := 0; it < iters; it++ {
		var mttkrp *tensor.Matrix
		for _, m := range order {
			mttkrp = kernels.Reference(t, factors, m)
			v := hadamardExcept(grams, m)
			a := mttkrp.Clone()
			if err := solveRows(v, a); err != nil {
				return nil, fmt.Errorf("reference ALS, iteration %d, mode %d: %w", it+1, m, err)
			}
			for r := range lambda {
				s := 0.0
				for i := 0; i < a.Rows; i++ {
					s += a.At(i, r) * a.At(i, r)
				}
				lambda[r] = math.Sqrt(s)
				for i := 0; i < a.Rows; i++ {
					a.Set(i, r, a.At(i, r)/lambda[r])
				}
			}
			factors[m], grams[m] = a, gram(a)
		}
		// ||X - M||² = ||X||² + λᵀ(⊙ Grams)λ - 2<X, M>, with <X, M> from
		// the last mode's MTTKRP.
		g := hadamardExcept(grams, -1)
		normM2, inner := 0.0, 0.0
		for p := range lambda {
			for q := range lambda {
				normM2 += lambda[p] * lambda[q] * g.At(p, q)
			}
		}
		last := factors[order[len(order)-1]]
		for i := 0; i < last.Rows; i++ {
			for p := range lambda {
				inner += mttkrp.At(i, p) * last.At(i, p) * lambda[p]
			}
		}
		fits = append(fits, 1-math.Sqrt(max(normX*normX+normM2-2*inner, 0))/normX)
	}
	return fits, nil
}

// gram returns aᵀa.
func gram(a *tensor.Matrix) *tensor.Matrix {
	g := tensor.NewMatrix(a.Cols, a.Cols)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for p, x := range row {
			gp := g.Row(p)
			for q, y := range row {
				gp[q] += x * y
			}
		}
	}
	return g
}

// hadamardExcept returns the elementwise product of every Gram matrix but
// the one of mode skip.
func hadamardExcept(grams []*tensor.Matrix, skip int) *tensor.Matrix {
	r := grams[0].Rows
	v := tensor.NewMatrix(r, r)
	for i := range v.Data {
		v.Data[i] = 1
	}
	for m, g := range grams {
		if m != skip {
			for i := range v.Data {
				v.Data[i] *= g.Data[i]
			}
		}
	}
	return v
}

// solveRows overwrites every row b of a with the x that solves x·v = b, for
// a symmetric positive definite v, through its Cholesky factor v = L·Lᵀ.
func solveRows(v, a *tensor.Matrix) error {
	r := v.Rows
	l := tensor.NewMatrix(r, r)
	for i := 0; i < r; i++ {
		for j := 0; j <= i; j++ {
			s := v.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if !(s > 0) {
					return fmt.Errorf("V is not positive definite (pivot %d is %g)", i, s)
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	for i := 0; i < a.Rows; i++ {
		x := a.Row(i)
		for p := 0; p < r; p++ { // L·y = b
			for k := 0; k < p; k++ {
				x[p] -= l.At(p, k) * x[k]
			}
			x[p] /= l.At(p, p)
		}
		for p := r - 1; p >= 0; p-- { // Lᵀ·x = y
			for k := p + 1; k < r; k++ {
				x[p] -= l.At(k, p) * x[k]
			}
			x[p] /= l.At(p, p)
		}
	}
	return nil
}
