package model

import "testing"

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
	p := attached([]int{100, 3, 2}, 8, 1, stats, 0)
	for u := 1; u < 3; u++ {
		if got := p.AccumChoice(u); got != AccumPriv {
			t.Fatalf("T=1 level %d resolved %v, want priv: one thread never pays reduction", u, got)
		}
	}
	if !p.AccumAttached() {
		t.Fatal("AccumAttached false after AttachAccum")
	}
}

func TestAttachAccumPrivCapExcludesPriv(t *testing.T) {
	// A huge sparse mode: rows*R*T far over the cap, few rows touched.
	counts := make([]int64, 1_000_000)
	for i := 0; i < 1000; i++ {
		counts[i*997] = 100
	}
	stats := []RowStats{{}, NewRowStats(counts)}
	p := attached([]int{50, 1_000_000}, 16, 8, stats, 0)
	if p.privFits(1) {
		t.Fatal("fixture fits the privatization cap; enlarge it")
	}
	if got := p.AccumChoice(1); got == AccumPriv {
		t.Fatal("priv chosen for a level over the privatization cap")
	}
}

func TestAttachAccumMemoizesMinimum(t *testing.T) {
	counts := make([]int64, 40_000)
	for i := range counts {
		counts[i] = 1
	}
	counts[0], counts[1], counts[2] = 5000, 4000, 3000
	stats := []RowStats{{}, NewRowStats(counts), histStats([]int64{6, 6, 6, 6})}
	p := attached([]int{30, 40_000, 4}, 16, 8, stats, 0)
	for u := 1; u < 3; u++ {
		choice := p.AccumChoice(u)
		chosen := p.AccumCost(u, choice).Total()
		for _, s := range AccumStrategies() {
			if s == AccumPriv && !p.privFits(u) {
				continue
			}
			if c := p.AccumCost(u, s).Total(); c < chosen {
				t.Fatalf("level %d resolved %v (%d) but %v costs %d", u, choice, chosen, s, c)
			}
		}
	}
}

// TestAccumCostOrdering pins the qualitative shape the calibration encodes.
func TestAccumCostOrdering(t *testing.T) {
	// Skewed multi-writer mass: atomic pays the casOverhead premium on every
	// add and must lose to both privatized strategies.
	counts := make([]int64, 10_000)
	for i := range counts {
		counts[i] = 10
	}
	stats := []RowStats{{}, NewRowStats(counts)}
	p := attached([]int{40, 10_000}, 16, 8, stats, 0)
	priv := p.AccumCost(1, AccumPriv).Total()
	hyb := p.AccumCost(1, AccumHybrid).Total()
	atom := p.AccumCost(1, AccumAtomic).Total()
	if atom <= priv || atom <= hyb {
		t.Fatalf("atomic (%d) not dominated by priv (%d) / hybrid (%d) under uniform multi-writer mass", atom, priv, hyb)
	}

	// A huge mode with concentrated mass: full privatization pays spilled
	// replicas plus a rows-proportional Reduce; hybrid's hot set absorbs the
	// skew and must win.
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
	bst := []RowStats{{}, NewRowStats(big)}
	bp := attached([]int{40, 2_000_000}, 8, 8, bst, 1<<40) // cap lifted: compare all three
	bpriv := bp.AccumCost(1, AccumPriv).Total()
	bhyb := bp.AccumCost(1, AccumHybrid).Total()
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
	p := attached([]int{40, 100_000}, 32, 8, stats, 1<<40)
	k := p.HotPick(1)
	if maxK := p.hotBudgetElems() / int64(p.T*p.R); k > maxK {
		t.Fatalf("HotPick k=%d over footprint budget %d", k, maxK)
	}
	if p2 := attached([]int{40, 4}, 32, 1, []RowStats{{}, histStats([]int64{9, 9, 9, 9})}, 0); p2.HotPick(1) != 0 {
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
	base.AttachAccum(stats, 4, 0)
	if got := base.ModeCost(save, 0); got != before[0] {
		t.Fatalf("root ModeCost changed by AttachAccum: %v -> %v", before[0], got)
	}
	for u := 1; u < 3; u++ {
		want := before[u]
		want.Writes -= base.dmFactor(u, fibers[u])
		want = want.Add(base.AccumCost(u, base.AccumChoice(u)))
		if got := base.ModeCost(save, u); got != want {
			t.Fatalf("level %d ModeCost=%v, want flat term swapped for accum term %v", u, got, want)
		}
	}
}
