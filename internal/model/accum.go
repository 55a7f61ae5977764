package model

import (
	"slices"
)

// This file extends the Section IV data-movement model with an output
// *accumulation* cost term. The base model charges every non-root MTTKRP a
// flat DM_factor write for its scattered output; in reality the cost
// depends on how the T threads' scattered rows are combined. One footprint
// rule (Privatized) fixes that per level: every thread gets a full private
// copy of the output when one thread runs or when the T copies fit the
// privatization cap, and only a level past the cap takes the hybrid
// strategy (per-thread replicas of the hottest rows, shared stores for the
// cold tail). Given the per-level row-write histogram (an O(nnz) census),
// the model prices whichever strategy the rule picks, and core plans the
// same one.

// casOverhead is the modeled extra cost, in element-moves per element, of a
// CAS add relative to a plain store: the locked read-modify-write cycle,
// retries, and cache-line ping-pong between colliding cores. Calibrated
// against the dev host, where forced-atomic MTTKRP kernels measure 6-9x
// the privatized ones; every CAS add pays it, contended or not.
const casOverhead = 6

// RowStats condenses the row-write histogram of one CSF level's MTTKRP
// output to what the cost formulas need: the total write count, the
// touched-row count, and the mass concentration of the hottest rows.
type RowStats struct {
	// Writes is the total number of row-vector adds (Σ counts).
	Writes int64
	// Touched is the number of rows with at least one write.
	Touched int64
	// TopMass[i] is the combined write count of the min(2^i, Touched)
	// most-written rows; the last entry equals Writes. Power-of-two
	// resolution keeps the stats O(log rows) while still exposing the
	// skew the hybrid strategy exploits.
	TopMass []int64
	// Mass2 is the write mass on rows with at least two writes — the
	// candidates for cross-thread sharing. NewRowStats fills it from the
	// histogram alone.
	Mass2 int64
	// MultiMass is the write mass landing on rows proven to be written by
	// more than one thread. It is exact only when MultiExact is set (the
	// planner back-fills it from the write census for the final layout);
	// otherwise the cost formulas estimate it from Mass2.
	MultiMass  int64
	MultiExact bool
}

// NewRowStats condenses a per-row write-count histogram. TopMass comes
// from a histogram of the counts, not from sorting them: a count below
// len(counts) goes into its bucket (only up to the largest count, so the
// histogram is no longer than the counts), and only the counts at or above
// that bound are sorted. Each of those carries at least len(counts) of the
// Writes, so there are at most Writes/len(counts) of them.
func NewRowStats(counts []int64) RowStats {
	var s RowStats
	var top int64
	for _, c := range counts {
		if c > 0 {
			s.Touched++
			s.Writes += c
			if c >= 2 {
				s.Mass2 += c
			}
			top = max(top, c)
		}
	}
	if s.Touched == 0 {
		return s
	}
	hist := make([]int64, min(top+1, int64(len(counts))))
	var big []int64
	for _, c := range counts {
		switch {
		case c >= int64(len(hist)):
			big = append(big, c)
		case c > 0:
			hist[c]++
		}
	}
	// Read the counts most-written first: the sorted big ones, then the
	// buckets from the top down, each as a run of equal counts.
	slices.Sort(big)
	var mass, rank int64 // rank: rows taken so far
	next := int64(1)
	take := func(c, n int64) {
		for rank+n >= next {
			mass += (next - rank) * c
			n -= next - rank
			rank = next
			s.TopMass = append(s.TopMass, mass)
			next <<= 1
		}
		mass += n * c
		rank += n
	}
	for i := len(big) - 1; i >= 0; i-- {
		take(big[i], 1)
	}
	for c := int64(len(hist)) - 1; c > 0; c-- {
		take(c, hist[c])
	}
	if next>>1 != s.Touched {
		s.TopMass = append(s.TopMass, mass)
	}
	return s
}

// multiMass returns the write mass on rows shared between threads: the
// exact census figure when available, otherwise an estimate from the
// histogram. Rows with c >= 2 writes spread over T contiguous chunks are
// single-writer with probability ~T^(1-c) under random placement, so the
// bulk of Mass2 is cross-thread; (T-1)/T scales out the c=2 same-chunk
// case.
func (s RowStats) multiMass(t int64) int64 {
	if s.MultiExact {
		return s.MultiMass
	}
	if t <= 1 {
		return 0
	}
	return s.Mass2 * (t - 1) / t
}

// topMass returns the write mass of (approximately) the k hottest rows:
// the recorded prefix at the largest power of two <= k.
func (s RowStats) topMass(k int64) int64 {
	if k <= 0 || len(s.TopMass) == 0 {
		return 0
	}
	i := 0
	for int64(1)<<(i+1) <= k && i+1 < len(s.TopMass) {
		i++
	}
	return s.TopMass[i]
}

// AttachAccum arms the accumulation-cost extension: stats[u] is the
// row-write histogram summary for CSF level u (u >= 1; stats[0] is
// ignored — the root mode accumulates through boundary replicas, not an
// OutBuf), threads is T and privCap the rows·R·T element bound of the
// privatization rule. ModeCost then charges each level the rule's
// strategy instead of the flat write approximation.
//
// The charge is save-independent: for u < d-1 the output is written once
// per level-u fiber whether the kernel reads memoized partials or
// recomputes from the leaves, and the leaf mode always scatters once per
// non-zero — so one term serves every point of the search.
func (p *Params) AttachAccum(stats []RowStats, threads int, privCap int64) {
	p.T = threads
	p.Accum = stats
	p.PrivCap = privCap
}

// Privatized is the accumulation rule, decided here and nowhere else: the
// non-root output at CSF level u gets a full private copy per thread when
// one thread runs or when the T copies (rows·R·T elements) fit PrivCap;
// otherwise it takes the hybrid strategy. The model prices that strategy
// (AccumCost) and core plans it.
func (p Params) Privatized(u int) bool {
	return p.T <= 1 || int64(p.Dims[u])*int64(p.R)*int64(p.T) <= p.PrivCap
}

// hotBudgetElems is the footprint budget for the hybrid strategy's dense
// replicas: half the cache, leaving room for the streams flowing past it.
func (p Params) hotBudgetElems() int64 { return p.CacheElems / 2 }

// HotPick sizes the hybrid hot set for level u: the power-of-two row count
// (0, 1, 2, ...) minimizing the modeled hybrid cost, subject to the T dense
// replicas fitting the footprint budget. Returns the chosen k.
func (p Params) HotPick(u int) int64 {
	if p.Accum == nil || u < 1 || u >= len(p.Accum) || p.T <= 1 {
		return 0
	}
	st := p.Accum[u]
	maxK := p.hotBudgetElems() / (int64(p.T) * int64(p.R))
	bestK, bestC := int64(0), p.hybridCostAt(u, 0).Total()
	for k := int64(1); k <= maxK && k <= st.Touched; k <<= 1 {
		if c := p.hybridCostAt(u, k).Total(); c < bestC {
			bestK, bestC = k, c
		}
	}
	return bestK
}

// dmOut returns the one-directional traffic of x row accesses to the
// shared rows×R output region, of which at most touched rows are live:
// cache-resident regions pay cold misses only.
func (p Params) dmOut(u int, touched, x int64) int64 {
	foot := int64(p.Dims[u]) * int64(p.R)
	vol := x * int64(p.R)
	if foot > p.CacheElems {
		return vol
	}
	cold := touched * int64(p.R)
	if cold < vol {
		return cold
	}
	return vol
}

// AccumCost estimates the per-iteration data movement of accumulating
// level u's MTTKRP output under the strategy Privatized picks: the
// scatter-phase traffic, any CAS premium, and the journal-guided
// Reset/Reduce. Requires AttachAccum's inputs (T, Accum) to be populated.
func (p Params) AccumCost(u int) Cost {
	if p.Accum == nil || u < 1 || u >= len(p.Dims) || u >= len(p.Accum) || p.T < 1 {
		return Cost{}
	}
	if p.Privatized(u) {
		return p.privCost(u)
	}
	return p.hybridCostAt(u, p.HotPick(u))
}

// privCost is the cost of full privatization: every thread scatters into
// its own replica, and Reset/Reduce walk the touched-row journals.
func (p Params) privCost(u int) Cost {
	st := p.Accum[u]
	R := int64(p.R)
	T := int64(p.T)
	rows := int64(p.Dims[u])
	// perThreadTouched bounds Σ_th |rows thread th touches|: at most every
	// write lands on a fresh row, at most every thread touches every
	// touched row.
	perThreadTouched := min(st.Writes, T*st.Touched)
	var c Cost
	if rows*R*T > p.CacheElems {
		// Replicas spill. The CSF traversal clusters writes by row, so a
		// spilled replica row costs one read-modify-write round trip per
		// thread that touches it, not one per add.
		c.Reads += perThreadTouched * R
		c.Writes += perThreadTouched * R
	} else {
		// Cache-resident replicas: cold misses on the touched rows.
		c.Writes += perThreadTouched * R
	}
	c.Writes += perThreadTouched * R // Reset: journal-guided clears
	c.Reads += perThreadTouched * R  // Reduce: one live replica row per touch
	c.Writes += rows * R             // Reduce: the output matrix
	return c
}

// hybridCostAt is the hybrid strategy's cost with a hot set of exactly k
// rows: remap lookups, hot-slab traffic, cold-tail scatter, the CAS
// premium on multi-writer mass the hot set did not absorb, and the
// journal-guided Reset/Reduce.
func (p Params) hybridCostAt(u int, k int64) Cost {
	st := p.Accum[u]
	R := int64(p.R)
	T := int64(p.T)
	rows := int64(p.Dims[u])
	covered := st.topMass(k)
	coldW := st.Writes - covered
	coldTouched := st.Touched - k
	if coldTouched < 0 {
		coldTouched = 0
	}
	var c Cost
	c.Reads += st.Writes  // remap lookup + branch: ~one element per add
	c.Writes += T * k * R // hot slabs: cache-resident by budget, cold misses only
	cold := p.dmOut(u, coldTouched, coldW)
	c.Reads += cold
	c.Writes += cold
	// Cold multi-writer rows fall back to CAS. The hot set is drawn from
	// the multi-writer rows, so its covered mass comes out of multiMass
	// first; whatever is left pays the locked-RMW premium.
	if cas := st.multiMass(T) - covered; cas > 0 {
		c.Reads += casOverhead * cas * R
	}
	c.Writes += (T*k + coldTouched) * R // Reset
	c.Reads += (T*k + coldTouched) * R  // Reduce: hot slabs + cold rows
	c.Writes += rows * R                // Reduce: the output matrix
	return c
}
