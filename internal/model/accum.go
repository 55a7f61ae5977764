package model

import (
	"fmt"
	"slices"
)

// This file extends the Section IV data-movement model with an output
// *accumulation* cost term. The base model charges every non-root MTTKRP a
// flat DM_factor write for its scattered output; in reality that cost is
// strategy-dependent — full per-thread privatization pays O(T·rows·R)
// Reset/Reduce even when few rows are touched, while a shared atomic buffer
// serializes on the hot rows that skewed tensors guarantee. Given the
// per-level row-write histogram (an O(nnz) census), the model scores
// {priv, hybrid(k), atomic} per level and the configuration search picks
// the cheapest jointly with memoization and the last-two-mode swap.

// AccumStrategy is the model's view of an output accumulation strategy;
// internal/kernels carries the executable twin (core maps between them).
type AccumStrategy int

const (
	// AccumPriv: every thread holds a full private output copy.
	AccumPriv AccumStrategy = iota
	// AccumHybrid: dense per-thread replicas for the hottest rows, shared
	// writes (plain or CAS) for the cold tail.
	AccumHybrid
	// AccumAtomic: one shared output, every add a CAS.
	AccumAtomic
)

// AccumStrategies enumerates the strategies in preference order (ties in
// the score keep the earlier, simpler strategy).
func AccumStrategies() []AccumStrategy {
	return []AccumStrategy{AccumPriv, AccumHybrid, AccumAtomic}
}

func (s AccumStrategy) String() string {
	switch s {
	case AccumPriv:
		return "priv"
	case AccumHybrid:
		return "hybrid"
	case AccumAtomic:
		return "atomic"
	}
	return fmt.Sprintf("accum(%d)", int(s))
}

// DefaultPrivCapElems mirrors kernels.DefaultPrivatizeMaxElems: the
// rows·R·T element budget above which full privatization is off the table.
const DefaultPrivCapElems = 1 << 24

// casOverhead is the modeled extra cost, in element-moves per element, of a
// CAS add relative to a plain store: the locked read-modify-write cycle,
// retries, and cache-line ping-pong between colliding cores. Calibrated
// against the dev host, where forced-atomic MTTKRP kernels measure 6-9x
// the privatized ones; every atomic add pays it, contended or not.
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

// NewRowStats condenses a per-row write-count histogram.
func NewRowStats(counts []int64) RowStats {
	var s RowStats
	nz := make([]int64, 0, len(counts))
	for _, c := range counts {
		if c > 0 {
			nz = append(nz, c)
			s.Writes += c
			if c >= 2 {
				s.Mass2 += c
			}
		}
	}
	s.Touched = int64(len(nz))
	if s.Touched == 0 {
		return s
	}
	slices.Sort(nz) // ascending; read back to front, most-written first
	var mass int64
	next := int64(1)
	for i := range nz {
		mass += nz[len(nz)-1-i]
		if int64(i+1) == next {
			s.TopMass = append(s.TopMass, mass)
			next <<= 1
		}
	}
	if next>>1 != int64(len(nz)) {
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
// OutBuf). The best strategy per level is resolved once and memoized;
// ModeCost then charges the resolved term instead of the flat write
// approximation. privCap <= 0 selects DefaultPrivCapElems.
//
// The resolved strategies are save-independent: for u < d-1 the output is
// written once per level-u fiber whether the kernel reads memoized partials
// or recomputes from the leaves, and the leaf mode always scatters once per
// non-zero — so one resolution serves every point of the search.
func (p *Params) AttachAccum(stats []RowStats, threads int, privCap int64) {
	if privCap <= 0 {
		privCap = DefaultPrivCapElems
	}
	p.T = threads
	p.Accum = stats
	p.PrivCap = privCap
	d := len(p.Dims)
	p.accumStrat = make([]AccumStrategy, d)
	p.accumCost = make([]Cost, d)
	for u := 1; u < d; u++ {
		best := AccumPriv
		bestC := p.AccumCost(u, AccumPriv)
		if threads > 1 {
			cands := []AccumStrategy{AccumHybrid, AccumAtomic}
			if !p.privFits(u) {
				// Over the privatization budget: hybrid and atomic only.
				best = AccumHybrid
				bestC = p.AccumCost(u, AccumHybrid)
				cands = cands[1:]
			}
			for _, s := range cands {
				if c := p.AccumCost(u, s); c.Total() < bestC.Total() {
					best, bestC = s, c
				}
			}
		}
		p.accumStrat[u] = best
		p.accumCost[u] = bestC
	}
}

// AccumAttached reports whether AttachAccum has armed the extension.
func (p Params) AccumAttached() bool { return p.accumCost != nil }

// AccumChoice returns the resolved strategy for level u (AccumPriv when
// the extension is not attached).
func (p Params) AccumChoice(u int) AccumStrategy {
	if p.accumStrat == nil || u < 0 || u >= len(p.accumStrat) {
		return AccumPriv
	}
	return p.accumStrat[u]
}

// AccumChoices returns the resolved per-level strategies (nil when the
// extension is not attached).
func (p Params) AccumChoices() []AccumStrategy { return p.accumStrat }

// privFits reports whether full privatization of level u's output is
// within the footprint budget.
func (p Params) privFits(u int) bool {
	return int64(p.Dims[u])*int64(p.R)*int64(p.T) <= p.PrivCap
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
// level u's MTTKRP output under the given strategy: the scatter-phase
// traffic, the contention penalty, and the journal-guided Reset/Reduce.
// Requires AttachAccum's inputs (T, Accum) to be populated.
func (p Params) AccumCost(u int, s AccumStrategy) Cost {
	if p.Accum == nil || u < 1 || u >= len(p.Dims) || u >= len(p.Accum) || p.T < 1 {
		return Cost{}
	}
	st := p.Accum[u]
	R := int64(p.R)
	T := int64(p.T)
	rows := int64(p.Dims[u])
	W := st.Writes
	// perThreadTouched bounds Σ_th |rows thread th touches|: at most every
	// write lands on a fresh row, at most every thread touches every
	// touched row.
	perThreadTouched := T * st.Touched
	if W < perThreadTouched {
		perThreadTouched = W
	}
	var c Cost
	switch s {
	case AccumPriv:
		if rows*R*T > p.CacheElems {
			// Replicas spill. The CSF traversal clusters writes by row, so
			// a spilled replica row costs one read-modify-write round trip
			// per thread that touches it, not one per add.
			c.Reads += perThreadTouched * R
			c.Writes += perThreadTouched * R
		} else {
			// Cache-resident replicas: cold misses on the touched rows.
			c.Writes += perThreadTouched * R
		}
		c.Writes += perThreadTouched * R // Reset: journal-guided clears
		c.Reads += perThreadTouched * R  // Reduce: one live replica row per touch
		c.Writes += rows * R             // Reduce: the output matrix
	case AccumHybrid:
		return p.hybridCostAt(u, p.HotPick(u))
	case AccumAtomic:
		vol := p.dmOut(u, st.Touched, W)
		c.Reads += vol // CAS load
		c.Writes += vol
		// Every add is a locked RMW, contended or not.
		c.Reads += casOverhead * W * R
		c.Writes += st.Touched * R // Reset
		c.Reads += st.Touched * R  // Reduce
		c.Writes += rows * R       // Reduce: the output matrix
	}
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
