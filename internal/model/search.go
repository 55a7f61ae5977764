package model

// Config is one point in STeF's configuration space: whether the CSF's last
// two modes are swapped, and which levels' partial MTTKRP results are
// memoized during the mode-0 pass.
type Config struct {
	// Swap selects the CSF layout with the last two modes exchanged.
	Swap bool
	// Save[l] selects memoization of P^(l); only levels 1..d-2 may be
	// set.
	Save []bool
	// Cost is the model's data-movement estimate for one CPD iteration
	// under this configuration.
	Cost Cost
}

// EnumerateSaves yields every valid memoization vector for an order-d
// tensor (2^(d-2) subsets of levels 1..d-2).
func EnumerateSaves(d int) [][]bool {
	free := d - 2
	out := make([][]bool, 0, 1<<free)
	for mask := 0; mask < 1<<free; mask++ {
		save := make([]bool, d)
		for b := 0; b < free; b++ {
			if mask&(1<<b) != 0 {
				save[1+b] = true
			}
		}
		out = append(out, save)
	}
	return out
}

// Search exhaustively evaluates every configuration — memoization subset ×
// layout — and returns them sorted implicitly by enumeration order together
// with the index of the cheapest. base describes the unswapped CSF;
// swapped describes the same tensor with the last two modes exchanged
// (identical fiber counts except at level d-2, which Algorithm 9 provides
// without a rebuild). Pass swapped.Fibers == nil to restrict the search to
// the base layout.
func Search(base, swapped Params) (best Config, all []Config) {
	d := len(base.Dims)
	for _, save := range EnumerateSaves(d) {
		all = append(all, Config{Swap: false, Save: save, Cost: base.IterationCost(save)})
		if swapped.Fibers != nil {
			all = append(all, Config{Swap: true, Save: save, Cost: swapped.IterationCost(save)})
		}
	}
	best = all[0]
	for _, c := range all[1:] {
		if c.Cost.Total() < best.Cost.Total() {
			best = c
		}
	}
	return best, all
}

// SearchOpCount mirrors Search with the AdaTM-style operation-count
// objective (no swap consideration — AdaTM reorders modes up front).
func SearchOpCount(base Params) Config {
	d := len(base.Dims)
	var best Config
	first := true
	for _, save := range EnumerateSaves(d) {
		ops := base.OpCount(save)
		c := Config{Save: save, Cost: Cost{Reads: ops}}
		if first || ops < best.Cost.Reads {
			best = c
			first = false
		}
	}
	return best
}

// SwappedParams derives the Params of the swapped layout from the base
// layout and the Algorithm 9 fiber count at level d-2. Mode lengths at the
// last two levels are exchanged; all other levels are unchanged.
func SwappedParams(base Params, swappedFibersD2 int64) Params {
	d := len(base.Dims)
	dims := append([]int(nil), base.Dims...)
	dims[d-2], dims[d-1] = dims[d-1], dims[d-2]
	fibers := append([]int64(nil), base.Fibers...)
	fibers[d-2] = swappedFibersD2
	return Params{R: base.R, CacheElems: base.CacheElems, Dims: dims, Fibers: fibers}
}
