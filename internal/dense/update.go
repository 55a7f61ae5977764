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
// of width r it overwrites each row of dst with the same row of src
// (skipped when src is nil), solves it against c (skipped when c is nil),
// clamps it at zero when nonNeg is set, and folds it into the column
// statistic stats (len r, not touched for statNone). Rows go four at a
// time. Every row sees exactly the arithmetic of the unfused CopyFrom →
// SolveVec → clamp → NormalizeColumns sequence, in the same order.
func solvePass(c *Cholesky, dst, src []float64, r int, nonNeg bool, stat colStat, stats []float64) {
	if r <= 0 {
		return
	}
	rows := len(dst) / r
	for i := 0; i < rows; i += 4 {
		grp := dst[i*r : min(i+4, rows)*r] //gate:allow bounds one window per four-row group, not per element
		if src != nil {
			s := src[i*r:][:len(grp)] //gate:allow bounds one window per four-row group, not per element
			for k, v := range s {
				grp[k] = v
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
		if stat != statNone {
			foldStat(stats[:r], grp, stat) //gate:allow bounds one window per four-row group, not per element
		}
	}
}

// foldStat folds the rows of grp (each len(st) wide) into the column
// statistic st. It is kept out of solvePass's loop body so that its loop
// gets registers of its own.
//
//go:noinline
func foldStat(st, grp []float64, stat colStat) {
	r := len(st)
	if r == 0 {
		return
	}
	for rest := grp; len(rest) >= r; rest = rest[r:] {
		row := rest[:r]
		if stat == statSumSq {
			for j, v := range row {
				st[j] += v * v
			}
			continue
		}
		for j, v := range row {
			if av := math.Abs(v); av > st[j] {
				st[j] = av
			}
		}
	}
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
// partial gram (skipped when gram is nil). When x is non-nil (it then has
// rows' shape and norms is set) it also returns Σ x·row·norms, the model
// inner product of the fit. Each element sees exactly the arithmetic of
// the unfused normalise → Gram → fit sequence, in the same order.
func scalePass(rows, x, norms, gram []float64, r int) float64 {
	if r <= 0 {
		return 0
	}
	n := len(rows) / r
	inner := 0.0
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
			if x != nil {
				xg := x[i*r:][:len(grp)] //gate:allow bounds one window per four-row group, not per element
				for rest := grp; len(rest) >= r && len(xg) >= r; rest, xg = rest[r:], xg[r:] {
					row, xr := rest[:r], xg[:r]
					for p := range row {
						inner += xr[p] * row[p] * nr[p]
					}
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
	return inner
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
	// Inner makes Update return Σ_{i,p} x[i,p]·a[i,p]·norms[p] over the
	// updated factor: the ⟨X, M⟩ term of the fit, which needs the factor
	// of the last mode in update order.
	Inner bool
}

// Updater runs the fused, row-parallel ALS factor update that replaces the
// per-mode sequence CopyFrom → SolveRowsInPlace → clamp →
// NormalizeColumns{,Max}Into → Gram, plus the fit's O(rows·R) inner
// product. It makes two passes over the par.Blocks row blocks of T
// threads:
//
//   - pass A (solvePass) copies each MTTKRP row into the factor, solves it
//     four rows at a time, clamps it and folds it into the thread's column
//     statistic; after all threads meet, each reduces the T statistics in
//     thread order into its own copy of the column norms;
//   - pass B (scalePass) divides each row by the norms and folds it into
//     the thread's upper-triangle Gram partial and, for the fit, its
//     inner-product partial, which Update reduces in thread order.
//
// Each row's arithmetic is the unfused sequence's, in the same order, so a
// one-thread update is bit-identical to it, and a fixed T > 1 is
// deterministic: only the cross-thread reduction order differs.
//
// The per-thread partials (T·R statistics and norms, T·R² Grams, T inner
// products) are allocated once by NewUpdater; an Updater serves one solve
// at a time.
type Updater struct {
	t, r  int
	stats []float64 // t×r column statistics of pass A
	norms []float64 // t×r reduced column norms, one copy per thread
	grams []float64 // t×r×r upper-triangle Gram partials of pass B
	inner []float64 // t fit inner-product partials of pass B
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
		t: t, r: r,
		stats: make([]float64, t*r),
		norms: make([]float64, t*r),
		grams: make([]float64, t*r*r),
		inner: make([]float64, t),
	}
}

// Update overwrites the factor a with x·V⁻¹ for the V factored in c,
// scales its columns (see UpdateOptions.TwoNorm), writes the scaling
// factors to norms and aᵀa to gram, and returns the fit's inner-product
// term when opts.Inner is set (0 otherwise). x must have a's shape.
func (u *Updater) Update(c *Cholesky, a, x *tensor.Matrix, opts UpdateOptions, norms []float64, gram *tensor.Matrix) float64 {
	r := u.r
	if a.Cols != r || x.Rows != a.Rows || x.Cols != r || c.n != r || len(norms) != r || gram.Rows != r || gram.Cols != r {
		panic(fmt.Sprintf("dense: Update shapes a %dx%d, x %dx%d, V %d, norms %d, gram %dx%d for rank %d",
			a.Rows, a.Cols, x.Rows, x.Cols, c.n, len(norms), gram.Rows, gram.Cols, r))
	}
	n := a.Rows
	nt := u.t
	if nt == 1 || n < 2 {
		// par.Blocks would run one block anyway; skip the closure.
		nt = 1
		u.thread(0, 0, n, nt, c, a.Data, x.Data, opts)
	} else {
		u.met.Add(nt)
		par.Blocks(n, nt, func(th, lo, hi int) { //gate:allow escape multi-threaded launch; the one-thread path above stays allocation-free
			u.thread(th, lo, hi, nt, c, a.Data, x.Data, opts)
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
// into its own norms, and pass B into its own partials.
func (u *Updater) thread(th, lo, hi, nt int, c *Cholesky, a, x []float64, opts UpdateOptions) {
	r := u.r
	stat := statMaxAbs
	if opts.TwoNorm {
		stat = statSumSq
	}
	rows, xrows := a[lo*r:hi*r], x[lo*r:hi*r]
	stats := u.stats[th*r : (th+1)*r]
	clear(stats)
	solvePass(c, rows, xrows, r, opts.NonNegative, stat, stats)
	if nt > 1 {
		u.met.Done()
		u.met.Wait()
	}
	norms := u.norms[th*r : (th+1)*r]
	reduceNorms(norms, u.stats[:nt*r], stat)
	gram := u.grams[th*r*r : (th+1)*r*r]
	clear(gram)
	if !opts.Inner {
		xrows = nil
	}
	u.inner[th] = scalePass(rows, xrows, norms, gram, r)
}
