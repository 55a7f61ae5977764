package dense

import (
	"fmt"
	"math"
	"sync"

	"stef/internal/par"
	"stef/internal/tensor"
)

// colStat selects the per-column statistic solvePass folds its rows into.
type colStat int

const (
	statNone   colStat = iota
	statSumSq          // Σ v², the 2-norm scaling of the first ALS iteration
	statMaxAbs         // max |v|, the max-norm scaling of later iterations
)

// solvePass is the first of the two blocked row passes every row-
// proportional kernel of this package runs on: over a block of whole rows
// of width r, in place, it solves each row against c (skipped when c is
// nil), clamps it at zero when nonNeg is set, and folds it into the column
// statistic stats (len r, not touched for statNone). Rows go four at a
// time. Every row sees exactly the arithmetic of the unfused SolveVec →
// clamp → NormalizeColumns sequence, in the same order.
//
// When xs is non-nil (len ≥ 4r) each group's input rows x are kept there
// across the solve, and solvePass returns Σ rowDot(x, â) over the rows in
// order, where â is the solved, clamped row: the fit's ⟨X, M⟩ term. It
// returns 0 otherwise.
func solvePass(c *Cholesky, rows []float64, r int, nonNeg bool, stat colStat, stats, xs []float64) float64 {
	if r <= 0 {
		return 0
	}
	n := len(rows) / r
	inner := 0.0
	for i := 0; i < n; i += 4 {
		grp := rows[i*r : min(i+4, n)*r] //gate:allow bounds one window per four-row group, not per element
		var xg []float64
		if xs != nil {
			xg = xs[:len(grp)] //gate:allow bounds one window per four-row group, not per element
			for k, v := range grp {
				xg[k] = v
			}
		}
		if c != nil {
			// A short tail group passes its last row in the unused slots.
			last := len(grp) - r
			c.solve4(grp[:r], grp[min(r, last):][:r], grp[min(2*r, last):][:r], grp[last:][:r]) //gate:allow bounds four row windows per group, not per element
		}
		if nonNeg {
			for k, v := range grp {
				if v < 0 {
					grp[k] = 0
				}
			}
		}
		if stat != statNone || xg != nil {
			inner = foldStat(stats, grp, xg, r, stat, inner)
		}
	}
	return inner
}

// foldStat folds the rows of grp (each r wide) into the column statistic
// st (len r; not touched for statNone) and, when xg holds the rows'
// inputs, adds rowDot(x, row) for each row, in row order, to inner, which
// it returns. It is kept out of solvePass's loop body so that its loops
// get registers of their own.
//
//go:noinline
func foldStat(st, grp, xg []float64, r int, stat colStat, inner float64) float64 {
	if r <= 0 {
		return inner
	}
	for rest := grp; len(rest) >= r; rest = rest[r:] {
		row := rest[:r]
		if len(xg) >= r {
			inner += rowDot(xg[:r], row)
			xg = xg[r:]
		}
		switch stat {
		case statSumSq:
			st := st[:len(row)] //gate:allow bounds one window per row, not per element
			for j, v := range row {
				st[j] += v * v
			}
		case statMaxAbs:
			st := st[:len(row)] //gate:allow bounds one window per row, not per element
			for j, v := range row {
				if av := math.Abs(v); av > st[j] {
					st[j] = av
				}
			}
		}
	}
	return inner
}

// rowDot returns Σ x[k]·a[k] over the shorter of the two, in the order the
// AVX2 scatter forms it: four partial sums from +0, one per column residue
// mod 4, each in column order, then (p0+p1)+(p2+p3). It never returns −0,
// so adding it to a sum that started at +0 is exact where it is +0.
func rowDot(x, a []float64) float64 {
	var p0, p1, p2, p3 float64
	for len(x) >= 4 && len(a) >= 4 {
		p0 += x[0] * a[0]
		p1 += x[1] * a[1]
		p2 += x[2] * a[2]
		p3 += x[3] * a[3]
		x, a = x[4:], a[4:]
	}
	if len(x) > 2 && len(a) > 2 {
		p2 += x[2] * a[2]
	}
	if len(x) > 1 && len(a) > 1 {
		p1 += x[1] * a[1]
	}
	if len(x) > 0 && len(a) > 0 {
		p0 += x[0] * a[0]
	}
	return (p0 + p1) + (p2 + p3)
}

// solve4 overwrites the right-hand sides b0..b3 (each of length n) with the
// solutions of V·x = b, interleaving their forward and back substitutions
// so that four independent dependency chains overlap. The rows may alias:
// aliased slots compute and store identical values. Back substitution walks
// the rows of the transposed factor, so both sweeps read L contiguously.
// Each row's arithmetic is the sequential order of the textbook solve.
func (c *Cholesky) solve4(b0, b1, b2, b3 []float64) {
	n := c.n
	l, lt := c.l, c.lt
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	// Forward substitution L·y = b.
	for i := 0; i < n; i++ {
		li := l[i*n:][:n] //gate:allow bounds one row window of L per component, not per element
		s0, s1, s2, s3 := b0[i], b1[i], b2[i], b3[i]
		for k := 0; k < i; k++ {
			lk := li[k]
			s0 -= lk * b0[k]
			s1 -= lk * b1[k]
			s2 -= lk * b2[k]
			s3 -= lk * b3[k]
		}
		d := li[i]
		b0[i], b1[i], b2[i], b3[i] = s0/d, s1/d, s2/d, s3/d
	}
	// Back substitution Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		ui := lt[i*n:][:n] //gate:allow bounds one row window of Lᵀ per component, not per element
		s0, s1, s2, s3 := b0[i], b1[i], b2[i], b3[i]
		for k := i + 1; k < n; k++ {
			uk := ui[k]
			s0 -= uk * b0[k]
			s1 -= uk * b1[k]
			s2 -= uk * b2[k]
			s3 -= uk * b3[k]
		}
		d := ui[i]
		b0[i], b1[i], b2[i], b3[i] = s0/d, s1/d, s2/d, s3/d
	}
}

// scalePass is the second blocked row pass: over a block of whole rows of
// width r, four rows at a time, it divides each row by norms (skipped when
// norms is nil) and folds it into the upper triangle of the r×r Gram
// partial gram (skipped when gram is nil). Each element sees exactly the
// arithmetic of the unfused normalise → Gram sequence, in the same order.
func scalePass(rows, norms, gram []float64, r int) {
	if r <= 0 {
		return
	}
	n := len(rows) / r
	for i := 0; i < n; i += 4 {
		grp := rows[i*r : min(i+4, n)*r] //gate:allow bounds one window per four-row group, not per element
		if norms != nil {
			nr := norms[:r] //gate:allow bounds one window per four-row group, not per element
			for rest := grp; len(rest) >= r; rest = rest[r:] {
				row := rest[:r]
				for j := range row {
					row[j] /= nr[j]
				}
			}
		}
		if gram == nil {
			continue
		}
		// The length tests on the Gram window let the compiler drop its
		// per-component bounds checks.
		if len(grp) < 4*r {
			for rest := grp; len(rest) >= r; rest = rest[r:] {
				row := rest[:r]
				grest := gram
				for p := 0; p < r && len(grest) >= r; p++ {
					upperAXPY(grest[:r], row[p], row, p) //gate:allow bounds tail rows only, one Gram row window per component
					grest = grest[r:]
				}
			}
			continue
		}
		r0, r1, r2, r3 := grp[:r], grp[r:][:r], grp[2*r:][:r], grp[3*r:][:r] //gate:allow bounds four row windows per group, not per element
		grest := gram
		for p := 0; p < r && len(grest) >= r; p++ {
			g := grest[:r]
			grest = grest[r:]
			v0, v1, v2, v3 := r0[p], r1[p], r2[p], r3[p]
			if v0 != 0 && v1 != 0 && v2 != 0 && v3 != 0 {
				for q := p; q < r; q++ {
					g[q] = g[q] + v0*r0[q] + v1*r1[q] + v2*r2[q] + v3*r3[q]
				}
				continue
			}
			// A row with a zero in column p contributes nothing to Gram
			// row p; the others are added one at a time, in row order.
			// (Each call re-slices its operands once per component.)
			upperAXPY(g, v0, r0, p) //gate:allow bounds
			upperAXPY(g, v1, r1, p) //gate:allow bounds
			upperAXPY(g, v2, r2, p) //gate:allow bounds
			upperAXPY(g, v3, r3, p) //gate:allow bounds
		}
	}
}

// upperAXPY adds v·row[q] to g[q] for q ≥ p, unless v is zero.
func upperAXPY(g []float64, v float64, row []float64, p int) {
	if v == 0 {
		return
	}
	g, row = g[p:], row[p:]
	row = row[:len(g)]
	for q := range g {
		g[q] += v * row[q]
	}
}

// reduceNorms folds the per-thread column statistics parts (a whole
// multiple of len(dst), one slab per thread) into dst in thread order, then
// turns them into column scaling factors: 2-norms, or max magnitudes
// floored at 1. A zero column gets factor 1, which leaves it untouched.
func reduceNorms(dst, parts []float64, stat colStat) {
	r := len(dst)
	copy(dst, parts[:r])
	for off := r; off+r <= len(parts); off += r {
		p := parts[off : off+r]
		for j, v := range p {
			if stat == statSumSq {
				dst[j] += v
			} else if v > dst[j] {
				dst[j] = v
			}
		}
	}
	for j, v := range dst {
		if stat == statSumSq {
			if v = math.Sqrt(v); v == 0 {
				v = 1
			}
		} else if v < 1 {
			v = 1
		}
		dst[j] = v
	}
}

// mirrorUpper copies the upper triangle of the square matrix m into its
// lower triangle.
func mirrorUpper(m *tensor.Matrix) {
	r := m.Cols
	for p := 0; p < r; p++ {
		for q := p + 1; q < r; q++ {
			m.Data[q*r+p] = m.Data[p*r+q]
		}
	}
}

// UpdateOptions selects the optional steps of one Updater.Update.
type UpdateOptions struct {
	// NonNegative clamps the solved factor at zero (projected ALS).
	NonNegative bool
	// TwoNorm scales columns to unit 2-norm, as the first ALS iteration
	// does, instead of by their max magnitude when it exceeds 1.
	TwoNorm bool
}

// Updater runs the fused, row-parallel ALS factor update that replaces the
// per-mode sequence SolveRowsInPlace → clamp → NormalizeColumns{,Max}Into
// → Gram, plus the fit's O(rows·R) inner product, in the factor's own
// storage: the factor holds the MTTKRP on entry. It makes two passes over
// the par.Blocks row blocks of T threads:
//
//   - pass A (solvePass) solves each MTTKRP row in place, four rows at a
//     time, clamps it, folds it into the thread's column statistic and,
//     for the fit, adds x·â (the MTTKRP row times the solved, clamped row)
//     to the thread's inner-product partial; after all threads meet, each
//     reduces the T statistics in thread order into its own copy of the
//     column norms;
//   - pass B (scalePass) divides each row by the norms and folds it into
//     the thread's upper-triangle Gram partial.
//
// Update reduces the Gram and inner-product partials in thread order.
// Each row's arithmetic is the unfused sequence's, in the same order, so a
// one-thread update is bit-identical to it, and a fixed T > 1 is
// deterministic: only the cross-thread reduction order differs.
//
// The per-thread partials (T·R statistics and norms, T·R² Grams, T inner
// products) are allocated once by NewUpdater; an Updater serves one solve
// at a time.
type Updater struct {
	t, r  int
	lanes bool      // run the AVX2 passes (solveLanes, scaleLanes)
	stats []float64 // t×r column statistics of pass A
	norms []float64 // t×r reduced column norms, one copy per thread
	grams []float64 // t×r×r upper-triangle Gram partials of pass B
	inner []float64 // t fit inner-product partials of pass A
	b     []float64 // t×16r lane buffers of pass A (the Go pass keeps four input rows there)
	off   []int     // t×16 lane row offsets of the AVX2 pass A
	// met is the rendezvous between the passes of a multi-threaded update:
	// no thread reduces the column statistics before all have produced
	// theirs.
	met sync.WaitGroup
}

// NewUpdater allocates an updater for rank-r factors on t threads (t < 1
// is treated as 1).
func NewUpdater(r, t int) *Updater {
	if t < 1 {
		t = 1
	}
	return &Updater{
		t: t, r: r, lanes: useLanes,
		stats: make([]float64, t*r),
		norms: make([]float64, t*r),
		grams: make([]float64, t*r*r),
		inner: make([]float64, t),
		b:     make([]float64, t*laneRows*r),
		off:   make([]int, t*laneRows),
	}
}

// Update overwrites the factor a, which holds the MTTKRP x on entry, with
// x·V⁻¹ for the V factored in c, scales its columns (see
// UpdateOptions.TwoNorm), writes the scaling factors to norms and aᵀa to
// gram, and returns the fit's inner-product term ⟨X, M⟩ = Σ_{i,p}
// x[i,p]·â[i,p], where â is the solved, clamped factor before scaling (the
// scaling factors cancel out of the model's weights).
func (u *Updater) Update(c *Cholesky, a *tensor.Matrix, opts UpdateOptions, norms []float64, gram *tensor.Matrix) float64 {
	r := u.r
	if a.Cols != r || c.n != r || len(norms) != r || gram.Rows != r || gram.Cols != r {
		panic(fmt.Sprintf("dense: Update shapes a %dx%d, V %d, norms %d, gram %dx%d for rank %d",
			a.Rows, a.Cols, c.n, len(norms), gram.Rows, gram.Cols, r))
	}
	n := a.Rows
	nt := u.t
	if nt == 1 || n < 2 {
		// par.Blocks would run one block anyway; skip the closure.
		nt = 1
		u.thread(0, 0, n, nt, c, a.Data, opts)
	} else {
		u.met.Add(nt)
		par.Blocks(n, nt, func(th, lo, hi int) { //gate:allow escape multi-threaded launch; the one-thread path above stays allocation-free
			u.thread(th, lo, hi, nt, c, a.Data, opts)
		})
	}

	copy(norms, u.norms[:r])
	g := gram.Data[:r*r]
	copy(g, u.grams[:r*r])
	inner := u.inner[0]
	for th := 1; th < nt; th++ {
		part := u.grams[th*r*r:][:r*r] //gate:allow bounds one partial window per thread, not per element
		for p := 0; p < r; p++ {
			for q := p; q < r; q++ {
				g[p*r+q] += part[p*r+q] //gate:allow bounds upper-triangle walk of the R×R reduce, once per thread
			}
		}
		inner += u.inner[th]
	}
	mirrorUpper(gram)
	return inner
}

// thread is thread th's share [lo, hi) of one update on nt threads: pass A
// over its rows, the meeting point, the reduction of the column statistics
// into its own norms, and pass B into its own Gram partial.
func (u *Updater) thread(th, lo, hi, nt int, c *Cholesky, a []float64, opts UpdateOptions) {
	r := u.r
	stat := statMaxAbs
	if opts.TwoNorm {
		stat = statSumSq
	}
	rows := a[lo*r : hi*r]
	stats := u.stats[th*r : (th+1)*r]
	clear(stats)
	b := u.b[th*laneRows*r : (th+1)*laneRows*r]
	if u.lanes {
		u.inner[th] = solveLanes(c, rows, r, opts.NonNegative, stat, stats, b, u.off[th*laneRows:(th+1)*laneRows])
	} else {
		u.inner[th] = solvePass(c, rows, r, opts.NonNegative, stat, stats, b)
	}
	if nt > 1 {
		u.met.Done()
		u.met.Wait()
	}
	norms := u.norms[th*r : (th+1)*r]
	reduceNorms(norms, u.stats[:nt*r], stat)
	gram := u.grams[th*r*r : (th+1)*r*r]
	clear(gram)
	if u.lanes {
		scaleLanes(rows, norms, gram, r)
	} else {
		scalePass(rows, norms, gram, r)
	}
}
