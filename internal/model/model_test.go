package model

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func params3() Params {
	return Params{
		R:          32,
		CacheElems: 1 << 15,
		Dims:       []int{100, 5000, 20000},
		Fibers:     []int64{100, 40000, 300000},
	}
}

func TestDMFactorCacheRule(t *testing.T) {
	p := params3()
	// Level 0: footprint 100*32 = 3200 elems < cache: capped at footprint.
	if got := p.dmFactor(0, 1_000_000); got != 3200 {
		t.Errorf("cached factor traffic %d, want footprint 3200", got)
	}
	if got := p.dmFactor(0, 10); got != 320 {
		t.Errorf("few accesses traffic %d, want 320", got)
	}
	// Level 2: footprint 20000*32 = 640000 > 32768: every access pays.
	if got := p.dmFactor(2, 1000); got != 32000 {
		t.Errorf("uncached factor traffic %d, want 32000", got)
	}
}

func TestSourceLevel(t *testing.T) {
	save := []bool{false, true, false, true, false} // d=5; levels 1,3 saved
	cases := []struct{ u, want int }{
		{1, 1}, {2, 3}, {3, 3}, {4, 4},
	}
	for _, c := range cases {
		if got := sourceLevel(save, c.u); got != c.want {
			t.Errorf("sourceLevel(u=%d) = %d, want %d", c.u, got, c.want)
		}
	}
}

// TestModeCostChargesOutputWrite pins the output term of Section IV: the
// root writes its whole output and every memoized partial once, and each
// non-root MTTKRP one DM_factor write per level-u fiber, whatever the memo
// set.
func TestModeCostChargesOutputWrite(t *testing.T) {
	p := params3()
	for _, save := range EnumerateSaves(3) {
		want := int64(p.Dims[0]) * int64(p.R)
		if save[1] {
			want += p.Fibers[1] * int64(p.R)
		}
		if got := p.ModeCost(save, 0).Writes; got != want {
			t.Errorf("save %v: root writes %d, want %d", save, got, want)
		}
		for u := 1; u < 3; u++ {
			if got, want := p.ModeCost(save, u).Writes, p.dmFactor(u, p.Fibers[u]); got != want {
				t.Errorf("save %v: level %d writes %d, want the DM_factor write %d", save, u, got, want)
			}
		}
	}
}

func TestSaveNoneIsBaselineIdentity(t *testing.T) {
	p := params3()
	none := make([]bool, 3)
	c := p.IterationCost(none)
	// With no memoization mode 1 and 2 must traverse to the leaves:
	// their read cost includes the full 2*nnz index term.
	mc := p.ModeCost(none, 1)
	if mc.Reads < 2*p.Fibers[2] {
		t.Errorf("no-memo mode-1 read %d below leaf traversal floor %d", mc.Reads, 2*p.Fibers[2])
	}
	if c.Total() <= 0 {
		t.Errorf("non-positive total cost %v", c)
	}
}

func TestMemoizationTradeoff(t *testing.T) {
	p := params3()
	save := []bool{false, true, false}
	memo := p.IterationCost(save)
	none := p.IterationCost(make([]bool, 3))
	// Memoizing level 1 (40k fibers vs 300k nnz) must reduce mode-1's
	// read volume...
	if p.ModeCost(save, 1).Reads >= p.ModeCost(make([]bool, 3), 1).Reads {
		t.Error("memoization did not reduce mode-1 reads")
	}
	// ...and add write volume to mode 0.
	if p.ModeCost(save, 0).Writes <= p.ModeCost(make([]bool, 3), 0).Writes {
		t.Error("memoization did not add mode-0 writes")
	}
	_ = memo
	_ = none
}

func TestMonotoneInR(t *testing.T) {
	f := func(seed int64) bool {
		p := params3()
		save := []bool{false, true, false}
		p.R = 16
		c16 := p.IterationCost(save).Total()
		p.R = 32
		c32 := p.IterationCost(save).Total()
		p.R = 64
		c64 := p.IterationCost(save).Total()
		return c16 <= c32 && c32 <= c64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3}); err != nil {
		t.Fatal(err)
	}
}

func TestEnumerateSaves(t *testing.T) {
	for d := 3; d <= 6; d++ {
		subs := EnumerateSaves(d)
		if len(subs) != 1<<(d-2) {
			t.Errorf("d=%d: %d subsets, want %d", d, len(subs), 1<<(d-2))
		}
		for _, s := range subs {
			if s[0] || s[d-1] {
				t.Errorf("d=%d: subset %v memoizes level 0 or leaf", d, s)
			}
		}
	}
}

func TestSearchPicksCheapest(t *testing.T) {
	base := params3()
	swapped := SwappedParams(base, 150000) // swap halves the level-1... level d-2 fibers
	best, all := Search(base, swapped)
	if len(all) != 2*2 { // d=3: 2 subsets × 2 layouts
		t.Fatalf("%d configs, want 4", len(all))
	}
	for _, c := range all {
		if c.Cost.Total() < best.Cost.Total() {
			t.Errorf("config %+v cheaper than chosen best %+v", c, best)
		}
	}
}

func TestSearchNoSwap(t *testing.T) {
	base := params3()
	best, all := Search(base, Params{})
	if len(all) != 2 {
		t.Fatalf("%d configs without swap, want 2", len(all))
	}
	if best.Swap {
		t.Fatal("swap chosen despite being excluded")
	}
}

func TestSwappedParams(t *testing.T) {
	base := params3()
	sw := SwappedParams(base, 12345)
	if sw.Dims[1] != base.Dims[2] || sw.Dims[2] != base.Dims[1] {
		t.Errorf("dims not exchanged: %v", sw.Dims)
	}
	if sw.Fibers[1] != 12345 {
		t.Errorf("level d-2 fibers %d, want 12345", sw.Fibers[1])
	}
	if sw.Fibers[2] != base.Fibers[2] {
		t.Errorf("leaf count changed: %d", sw.Fibers[2])
	}
	if sw.Fibers[0] != base.Fibers[0] {
		t.Errorf("root count changed: %d", sw.Fibers[0])
	}
}

func TestOpCountPrefersMemoization(t *testing.T) {
	p := params3()
	cfg := SearchOpCount(p)
	// With 40k level-1 fibers versus 300k leaves, memoizing level 1
	// strictly reduces FLOPs, so the op-count rule must take it.
	if !cfg.Save[1] {
		t.Errorf("op-count search skipped beneficial memoization: %+v", cfg)
	}
	all := p.OpCount([]bool{false, true, false})
	none := p.OpCount([]bool{false, false, false})
	if all >= none {
		t.Errorf("memoized op count %d not below %d", all, none)
	}
}

func TestMemoBytes(t *testing.T) {
	p := params3()
	if got := p.MemoBytes([]bool{false, true, false}); got != p.Fibers[1]*32*8 {
		t.Errorf("MemoBytes = %d, want %d", got, p.Fibers[1]*32*8)
	}
	if got := p.MemoBytes(make([]bool, 3)); got != 0 {
		t.Errorf("empty MemoBytes = %d", got)
	}
}

func TestCostHelpers(t *testing.T) {
	c := Cost{Reads: 3, Writes: 4}
	if c.Total() != 7 {
		t.Errorf("Total = %d", c.Total())
	}
	s := c.Add(Cost{Reads: 1, Writes: 2})
	if s.Reads != 4 || s.Writes != 6 {
		t.Errorf("Add = %+v", s)
	}
	if c.String() == "" {
		t.Error("empty String()")
	}
}

func TestExplain(t *testing.T) {
	p := params3()
	var buf bytes.Buffer
	p.Explain(&buf, []bool{false, true, false})
	out := buf.String()
	for _, want := range []string{"mode(level)", "P^(1)", "traversal", "memoized-partials storage"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain output missing %q:\n%s", want, out)
		}
	}
}

func TestParamsForCacheDefault(t *testing.T) {
	p := ParamsForCache([]int{2, 3, 4}, []int64{1, 2, 3}, 8, 0)
	if p.CacheElems != DefaultCacheBytes/8 {
		t.Errorf("default cache %d", p.CacheElems)
	}
}
