package model

import (
	"math/rand"
	"slices"
	"testing"
)

// histStats builds RowStats from a literal histogram, as the search-time
// (pre-census) path does.
func histStats(counts []int64) RowStats { return NewRowStats(counts) }

func TestNewRowStats(t *testing.T) {
	s := NewRowStats([]int64{0, 7, 1, 0, 4, 1, 2, 0})
	if s.Writes != 15 || s.Touched != 5 {
		t.Fatalf("Writes=%d Touched=%d, want 15/5", s.Writes, s.Touched)
	}
	if s.Mass2 != 13 {
		t.Fatalf("Mass2=%d, want 13 (rows with >= 2 writes)", s.Mass2)
	}
	// TopMass prefixes at 1, 2, 4 rows plus the full tail.
	want := []int64{7, 11, 14, 15}
	if len(s.TopMass) != len(want) {
		t.Fatalf("TopMass=%v, want %v", s.TopMass, want)
	}
	for i, m := range want {
		if s.TopMass[i] != m {
			t.Fatalf("TopMass=%v, want %v", s.TopMass, want)
		}
	}
	if got := s.topMass(1 << 30); got != s.Writes {
		t.Fatalf("topMass(all)=%d, want Writes=%d", got, s.Writes)
	}
	if got := s.topMass(0); got != 0 {
		t.Fatalf("topMass(0)=%d, want 0", got)
	}
	for k := int64(1); k <= 8; k <<= 1 {
		if s.topMass(k) > s.topMass(k<<1) {
			t.Fatalf("topMass not monotone at k=%d", k)
		}
	}
	if z := NewRowStats(nil); z.Writes != 0 || z.TopMass != nil {
		t.Fatalf("empty histogram: %+v", z)
	}
}

// sortedTopMass is the TopMass reference written with a sort: the
// positive counts in descending order, summed, recorded at every power of
// two and at the end.
func sortedTopMass(counts []int64) []int64 {
	var nz []int64
	for _, c := range counts {
		if c > 0 {
			nz = append(nz, c)
		}
	}
	slices.Sort(nz)
	slices.Reverse(nz)
	var top []int64
	var mass int64
	for i, c := range nz {
		mass += c
		if n := i + 1; n&(n-1) == 0 || n == len(nz) {
			top = append(top, mass)
		}
	}
	return top
}

// TestNewRowStatsMatchesSort holds the histogram TopMass to the sorted
// reference on random histograms: counts far above the row count (sorted
// apart from the buckets), counts just below it, all-zero and one-row
// histograms.
func TestNewRowStatsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		rows := rng.Intn(70)
		counts := make([]int64, rows)
		for r := range counts {
			switch rng.Intn(5) {
			case 0: // untouched
			case 1:
				counts[r] = int64(rows) + rng.Int63n(1000)
			case 2:
				counts[r] = max(int64(rows)-1-rng.Int63n(3), 0)
			default:
				counts[r] = 1 + rng.Int63n(4)
			}
		}
		got := NewRowStats(counts)
		if want := sortedTopMass(counts); !slices.Equal(got.TopMass, want) {
			t.Fatalf("counts %v: TopMass %v, want %v", counts, got.TopMass, want)
		}
		if n := len(got.TopMass); n > 0 && got.TopMass[n-1] != got.Writes {
			t.Fatalf("counts %v: last TopMass %d, Writes %d", counts, got.TopMass[n-1], got.Writes)
		}
	}
}

func TestMultiMassEstimateVsExact(t *testing.T) {
	s := histStats([]int64{10, 10, 1, 1})
	if got := s.multiMass(1); got != 0 {
		t.Fatalf("multiMass(T=1)=%d, want 0: one thread cannot share rows", got)
	}
	if got, want := s.multiMass(4), int64(20*3/4); got != want {
		t.Fatalf("multiMass estimate=%d, want %d", got, want)
	}
	s.MultiMass = 3
	s.MultiExact = true
	if got := s.multiMass(4); got != 3 {
		t.Fatalf("multiMass with exact census=%d, want 3", got)
	}
}

// testCap is the privatization cap the tests arm the model with: the
// 2^24-element default of core's planner.
const testCap = 1 << 24

// attached builds an armed Params over a synthetic 3-level profile.
func attached(dims []int, r, threads int, stats []RowStats, privCap int64) Params {
	fibers := make([]int64, len(dims))
	for l := range fibers {
		fibers[l] = int64(dims[l]) * 4
	}
	p := ParamsForCache(dims, fibers, r, 0)
	p.AttachAccum(stats, threads, privCap)
	return p
}

func TestAttachAccumSingleThreadIsPriv(t *testing.T) {
	stats := []RowStats{{}, histStats([]int64{5, 3, 2}), histStats([]int64{9, 1})}
	// A cap of one element fits no output: only T = 1 makes the rule
	// privatize.
	p := attached([]int{100, 3, 2}, 8, 1, stats, 1)
	for u := 1; u < 3; u++ {
		if !p.Privatized(u) {
			t.Fatalf("T=1 level %d not privatized: one thread never pays reduction", u)
		}
		if got, want := p.AccumCost(u), p.privCost(u); got != want {
			t.Fatalf("T=1 level %d AccumCost %v, want the priv cost %v", u, got, want)
		}
	}
}

func TestAttachAccumPrivCapExcludesPriv(t *testing.T) {
	// A huge sparse mode: rows*R*T far over the cap, few rows touched.
	counts := make([]int64, 1_000_000)
	for i := 0; i < 1000; i++ {
		counts[i*997] = 100
	}
	stats := []RowStats{{}, NewRowStats(counts)}
	p := attached([]int{50, 1_000_000}, 16, 8, stats, testCap)
	if p.Privatized(1) {
		t.Fatal("priv chosen for a level over the privatization cap")
	}
	if got, want := p.AccumCost(1), p.hybridCostAt(1, p.HotPick(1)); got != want {
		t.Fatalf("over-cap AccumCost %v, want the hybrid cost %v", got, want)
	}
}

// TestAttachAccumPrivUnderCap pins the rule: a level whose T copies fit
// the cap is privatized, and priced as such, even where the model prices
// the hybrid strategy lower; one element more than the footprint sends
// it to hybrid.
func TestAttachAccumPrivUnderCap(t *testing.T) {
	stats := []RowStats{{}, NewRowStats(skewedHugeMode())}
	foot := int64(2_000_000 * 8 * 8)
	p := attached([]int{40, 2_000_000}, 8, 8, stats, foot)
	if !p.Privatized(1) {
		t.Fatal("a level whose copies fit the cap exactly is not privatized")
	}
	if hyb := p.hybridCostAt(1, p.HotPick(1)); hyb.Total() >= p.privCost(1).Total() {
		t.Fatalf("fixture: hybrid (%v) not priced under priv (%v); the case tests nothing", hyb, p.privCost(1))
	}
	if got, want := p.AccumCost(1), p.privCost(1); got != want {
		t.Fatalf("under-cap AccumCost %v, want the priv cost %v", got, want)
	}
	if q := attached([]int{40, 2_000_000}, 8, 8, stats, foot-1); q.Privatized(1) {
		t.Fatal("a level one element over the cap is privatized")
	}
}

// skewedHugeMode is the row-write histogram of a 2M-row mode whose mass
// sits on 64 rows, over a cold tail of 100k once-written rows.
func skewedHugeMode() []int64 {
	big := make([]int64, 2_000_000)
	for i := 0; i < 64; i++ {
		big[i*31_249] = 10_000
	}
	for i := 0; i < 100_000; i++ {
		r := (i*7 + 3) % len(big)
		if big[r] == 0 {
			big[r] = 1
		}
	}
	return big
}

// TestAccumCostOrdering pins the qualitative shape the calibration
// encodes: on a huge mode with concentrated mass, full privatization
// pays spilled replicas plus a rows-proportional Reduce, and hybrid's hot
// set absorbs the skew and must cost less.
func TestAccumCostOrdering(t *testing.T) {
	bst := []RowStats{{}, NewRowStats(skewedHugeMode())}
	bp := attached([]int{40, 2_000_000}, 8, 8, bst, testCap)
	bpriv := bp.privCost(1).Total()
	bhyb := bp.hybridCostAt(1, bp.HotPick(1)).Total()
	if bhyb >= bpriv {
		t.Fatalf("hybrid (%d) not under priv (%d) on a huge skewed mode", bhyb, bpriv)
	}
}

func TestHotPickRespectsBudget(t *testing.T) {
	counts := make([]int64, 100_000)
	for i := range counts {
		counts[i] = 50
	}
	stats := []RowStats{{}, NewRowStats(counts)}
	p := attached([]int{40, 100_000}, 32, 8, stats, testCap)
	k := p.HotPick(1)
	if maxK := p.hotBudgetElems() / int64(p.T*p.R); k > maxK {
		t.Fatalf("HotPick k=%d over footprint budget %d", k, maxK)
	}
	if p2 := attached([]int{40, 4}, 32, 1, []RowStats{{}, histStats([]int64{9, 9, 9, 9})}, testCap); p2.HotPick(1) != 0 {
		t.Fatal("HotPick nonzero at T=1")
	}
}

func TestModeCostUsesAccumTerm(t *testing.T) {
	dims := []int{50, 60, 70}
	fibers := []int64{50, 300, 2000}
	base := ParamsForCache(dims, fibers, 8, 0)
	save := []bool{false, true, false}
	before := make([]Cost, 3)
	for u := 0; u < 3; u++ {
		before[u] = base.ModeCost(save, u)
	}
	stats := make([]RowStats, 3)
	for u := 1; u < 3; u++ {
		counts := make([]int64, dims[u])
		for i := range counts {
			counts[i] = fibers[u] / int64(dims[u])
		}
		stats[u] = NewRowStats(counts)
	}
	base.AttachAccum(stats, 4, testCap)
	if got := base.ModeCost(save, 0); got != before[0] {
		t.Fatalf("root ModeCost changed by AttachAccum: %v -> %v", before[0], got)
	}
	for u := 1; u < 3; u++ {
		want := before[u]
		want.Writes -= base.dmFactor(u, fibers[u])
		want = want.Add(base.AccumCost(u))
		if got := base.ModeCost(save, u); got != want {
			t.Fatalf("level %d ModeCost=%v, want flat term swapped for accum term %v", u, got, want)
		}
	}
}
