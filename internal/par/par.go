// Package par provides minimal shared-memory parallel loop helpers built on
// goroutines. All STeF kernels parameterise their thread count explicitly
// (the paper's experiments sweep machine sizes), so helpers take T rather
// than consulting GOMAXPROCS.
package par

import "sync"

// Blocks runs fn(th, lo, hi) for T contiguous, nearly equal blocks of
// [0, n), one goroutine per block, and waits for all of them. Block th
// covers [lo, hi). Blocks may be empty when n < T. T < 1 is treated as 1.
func Blocks(n, t int, fn func(th, lo, hi int)) {
	if t < 1 {
		t = 1
	}
	if t == 1 || n <= 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(t)
	for th := 0; th < t; th++ {
		lo := th * n / t
		hi := (th + 1) * n / t
		// One closure per goroutine: passing th, lo and hi as arguments
		// would wrap it in a second, argument-capturing one.
		//gate:allow escape goroutine closure, one allocation per thread launch, not per-nnz
		go func() {
			defer wg.Done()
			fn(th, lo, hi)
		}()
	}
	wg.Wait()
}

// Do runs fn(th) for th in [0, T) concurrently and waits.
func Do(t int, fn func(th int)) {
	if t < 1 {
		t = 1
	}
	if t == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(t)
	for th := 0; th < t; th++ {
		//gate:allow escape goroutine closure, one allocation per thread launch, not per-nnz
		go func() {
			defer wg.Done()
			fn(th)
		}()
	}
	wg.Wait()
}
