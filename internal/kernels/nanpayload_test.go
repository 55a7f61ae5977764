package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"stef/internal/tensor"
)

// The AVX2 fiber kernels keep one operand order at every multiply and
// add, and where both operands are NaN that order decides which payload
// comes out: x86 passes through the first source's NaN. bitEqual treats
// any two NaNs as equal, so the contract tests cannot see the order; the
// tests below pin it. Their inputs mix quiet NaNs of distinct payloads
// with small finite values, and every result must match, bit for bit, a
// scalar form that fixes an order of its own through nanMul and nanAdd:
//
//	runHad, one-leaf fiber (FONE):        t = ((+0 + val·f)·m) + t
//	runHad, other fibers (FADD, FFOLD):   s = s + val·f from +0; t = s·m + t
//	runOut (PSUM, PFOLD):                 s = s + val·f from +0; row = s·g + row
//	runScatter (SK, SSCAT):               k = a·m; row = val·k + row
//
// Each masked chunk (the ...M macros) and each 64-column half keeps its
// unmasked twin's order. The Go forms are not held to this: their order
// is whatever the compiler picks for a commutative op.

// nanFirst returns a's NaN if a is one, else b's, else v: x86's rule
// for a multiply or add with a NaN operand. The inputs are quiet NaNs, so
// no payload changes on the way through.
func nanFirst(a, b, v float64) float64 {
	switch {
	case math.IsNaN(a):
		return a
	case math.IsNaN(b):
		return b
	}
	return v
}

func nanMul(a, b float64) float64 { return nanFirst(a, b, a*b) }
func nanAdd(a, b float64) float64 { return nanFirst(a, b, a+b) }

// payloadGen draws values that are NaNs of payloads not drawn before
// about half the time, and small finite values otherwise, so products
// and sums never overflow into an invalid operation.
type payloadGen struct {
	rng  *rand.Rand
	next uint64
}

func (g *payloadGen) value() float64 {
	if g.rng.Intn(2) == 0 {
		g.next++
		return math.Float64frombits(0x7ff8_0000_0000_0000 | g.next<<1 | uint64(g.rng.Intn(2))<<63)
	}
	return float64(1+g.rng.Intn(4)) * []float64{-0.5, 0.5}[g.rng.Intn(2)]
}

func (g *payloadGen) fill(v []float64) {
	for i := range v {
		v[i] = g.value()
	}
}

func (g *payloadGen) matrix(rows, cols int) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	g.fill(m.Data)
	return m
}

// payloadRun draws a run of 1-5 fibers over rows [0, 5) with 0-3 leaves
// each, on leaf rows [0, 6): one-leaf fibers take the FONE path and the
// others FADD.
func (g *payloadGen) run() fiberRun {
	r := fiberRun{ptr: []int64{0}}
	for c := 1 + g.rng.Intn(5); c > 0; c-- {
		r.mids = append(r.mids, int32(g.rng.Intn(5)))
		for n := g.rng.Intn(4); n > 0; n-- {
			r.vals = append(r.vals, g.value())
			r.fids = append(r.fids, int32(g.rng.Intn(6)))
		}
		r.ptr = append(r.ptr, int64(len(r.vals)))
	}
	r.kMax = int64(len(r.vals))
	return r
}

// scalarRunHad, scalarRunOut and scalarRunScatter are the scalar forms of
// the table above.
func scalarRunHad(t []float64, gm *tensor.Matrix, r fiberRun, f *tensor.Matrix) {
	for c, mid := range r.mids {
		lo, hi := r.window(c)
		m := gm.Row(int(mid))
		for i := range t {
			if hi-lo == 1 {
				t[i] = nanAdd(nanMul(nanAdd(0, nanMul(r.vals[lo], f.At(int(r.fids[lo]), i))), m[i]), t[i])
				continue
			}
			s := 0.0
			for j := lo; j < hi; j++ {
				s = nanAdd(s, nanMul(r.vals[j], f.At(int(r.fids[j]), i)))
			}
			t[i] = nanAdd(nanMul(s, m[i]), t[i])
		}
	}
}

func scalarRunOut(out *tensor.Matrix, g []float64, r fiberRun, f *tensor.Matrix) {
	for c, mid := range r.mids {
		lo, hi := r.window(c)
		row := out.Row(int(mid))
		for i := range row {
			s := 0.0
			for j := lo; j < hi; j++ {
				s = nanAdd(s, nanMul(r.vals[j], f.At(int(r.fids[j]), i)))
			}
			row[i] = nanAdd(nanMul(s, g[i]), row[i])
		}
	}
}

func scalarRunScatter(out *tensor.Matrix, a []float64, gm *tensor.Matrix, r fiberRun) {
	k := make([]float64, len(a))
	for c, mid := range r.mids {
		lo, hi := r.window(c)
		for i := range k {
			k[i] = nanMul(a[i], gm.At(int(mid), i))
		}
		for j := lo; j < hi; j++ {
			row := out.Row(int(r.fids[j]))
			for i := range row {
				row[i] = nanAdd(nanMul(r.vals[j], k[i]), row[i])
			}
		}
	}
}

// payloadEqual fails unless got and want agree in every bit, NaN
// payloads included.
func payloadEqual(t *testing.T, got, want []float64, ctx string) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %#016x, want %#016x", ctx, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestRunNaNPayloadOrder holds runHad, runOut and runScatter's assembly
// to the scalar operand order at every rank from 1 to 70, so every column
// block, half and masked chunk is taken, on random runs whose inputs are
// half NaNs of distinct payloads.
func TestRunNaNPayloadOrder(t *testing.T) {
	simd := simdOrSkip(t)
	for rank := 1; rank <= 70; rank++ {
		for trial := 0; trial < 20; trial++ {
			g := &payloadGen{rng: rand.New(rand.NewSource(int64(rank*100 + trial)))}
			r := g.run()
			f, gm := g.matrix(6, rank), g.matrix(5, rank)
			vec := make([]float64, rank)
			g.fill(vec)
			ctx := fmt.Sprintf("R=%d trial %d", rank, trial)

			dst := make([]float64, rank)
			g.fill(dst)
			want := append([]float64(nil), dst...)
			scalarRunHad(want, gm, r, f)
			simd.runHad(dst, make([]float64, rank), gm, r, f)
			payloadEqual(t, dst, want, "runHad "+ctx)

			out := g.matrix(5, rank)
			wantOut := out.Clone()
			scalarRunOut(wantOut, vec, r, f)
			simd.runOut(out, make([]float64, rank), vec, r, f)
			payloadEqual(t, out.Data, wantOut.Data, "runOut "+ctx)

			out = g.matrix(6, rank)
			wantOut = out.Clone()
			scalarRunScatter(wantOut, vec, gm, r)
			simd.runScatter(out, make([]float64, rank), vec, gm, r)
			payloadEqual(t, out.Data, wantOut.Data, "runScatter "+ctx)
		}
	}
}
