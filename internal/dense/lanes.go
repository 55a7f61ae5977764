package dense

import (
	"math"

	"stef/internal/cpu"
)

// useLanes selects the AVX2 passes (lanes_amd64.s) for every Updater and
// every one-thread kernel of this package, by the rule kernels.opsFor
// uses for the rank-vector primitives: where the CPU runs AVX2 and the
// build is not a race build. The AVX2 passes give the Go passes' bits at
// every shape, so the choice never changes a solve.
var useLanes = cpu.AVX2 && !cpu.RaceBuild

// laneRows is the number of rows pass A solves in one lane-kernel call:
// four YMM accumulators of four lanes each.
const laneRows = 16

// posZero reports whether every element of row is +0 in every bit (a −0
// element does not qualify). It tests four elements per branch.
func posZero(row []float64) bool {
	for ; len(row) >= 4; row = row[4:] {
		if math.Float64bits(row[0])|math.Float64bits(row[1])|math.Float64bits(row[2])|math.Float64bits(row[3]) != 0 {
			return false
		}
	}
	for _, v := range row {
		if math.Float64bits(v) != 0 {
			return false
		}
	}
	return true
}

// finite reports whether no element of v is NaN or ±Inf.
func finite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// solveLanes is solvePass on the AVX2 kernels for a non-nil c, in place.
// It gathers the next 16 rows into the lane buffer b (exactly 16·r
// values), noting their row offsets in off (exactly 16), solves them in
// lane order and scatters them back with the clamp and the column
// statistic. The scatter reads each input row before it overwrites it, so
// solveLanes returns ⟨X, M⟩'s share of these rows, Σ rowDot(x, â) in row
// order, with solvePass's bits.
//
// A row whose input is +0 in every bit is left +0 without being solved
// when c's factor is finite: l·(+0) is ±0 and +0 − (±0) is +0, so both
// substitutions and the divides by the positive diagonal leave it +0, a +0
// row adds nothing to the statistic, and its rowDot, +0, leaves the sum
// (which is never −0) as it is.
func solveLanes(c *Cholesky, rows []float64, r int, nonNeg bool, stat colStat, stats, b []float64, off []int) float64 {
	if r <= 0 {
		return 0
	}
	n := len(rows) / r
	k := 0
	inner := 0.0
	for i := 0; i < n; i++ {
		o := i * r
		if c.finite && posZero(rows[o:][:r]) { //gate:allow bounds one row window per row, not per element
			continue
		}
		off[k] = o //gate:allow bounds one offset per solved row, not per element
		if k++; k == laneRows {
			gatherLanesAVX2(b, rows, off)
			solveLanesAVX2(b, c.l, c.lt)
			inner = scatterLanesAVX2(rows, b, off, stats, nonNeg, stat, inner)
			k = 0
		}
	}
	if k > 0 {
		gatherLanesAVX2(b, rows, off[:k])
		solveLanesAVX2(b, c.l, c.lt)
		inner = scatterLanesAVX2(rows, b, off[:k], stats, nonNeg, stat, inner)
	}
	return inner
}

// scaleLanes is scalePass on the AVX2 kernels: it divides each row by
// norms (skipped when nil) and adds the rows four at a time into the upper
// triangle of gram (skipped when nil).
//
// A row that is +0 in every bit skips the divide and the Gram when the
// norms are finite (or nil): +0/n is +0 for every finite positive n, and
// a row whose value at p is zero adds nothing to Gram row p.
func scaleLanes(rows, norms, gram []float64, r int) {
	if r <= 0 {
		return
	}
	skip := norms == nil || finite(norms)
	n := len(rows) / r
	var grp [4][]float64
	g := 0
	for i := 0; i < n; i++ {
		row := rows[i*r:][:r] //gate:allow bounds one row window per row, not per element
		if skip && posZero(row) {
			continue
		}
		if norms != nil {
			divRowsAVX2(row, norms)
		}
		if gram != nil {
			grp[g] = row //gate:allow bounds one Gram slot per row, not per element
			if g++; g == len(grp) {
				gram4AVX2(gram, grp[0], grp[1], grp[2], grp[3])
				g = 0
			}
		}
	}
	if g > 0 {
		clear(grp[g:])
		gram4AVX2(gram, grp[0], grp[1], grp[2], grp[3])
	}
}

// gramLanes is scaleLanes's Gram step alone, for GramStream: it adds the
// rows that are not +0 in every bit into the upper triangle of gram, four
// per gram4AVX2 call. grp holds the g rows of a partial group on entry and
// on return; gramLanes returns their new count.
func gramLanes(rows, gram []float64, r int, grp *[4][]float64, g int) int {
	n := len(rows) / r
	for i := 0; i < n; i++ {
		row := rows[i*r:][:r] //gate:allow bounds one row window per row, not per element
		if posZero(row) {
			continue
		}
		grp[g] = row //gate:allow bounds one Gram slot per row, not per element
		if g++; g == len(grp) {
			gram4AVX2(gram, grp[0], grp[1], grp[2], grp[3])
			g = 0
		}
	}
	return g
}
