package cpd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"stef/internal/dense"
	"stef/internal/tensor"
)

// mathRandStart is the start-up randomStart replaced: math/rand's Float64
// drawn mode by mode into the factors, then dense.Gram of each.
func mathRandStart(dims []int, r int, seed int64) (factors, grams []*tensor.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	for _, n := range dims {
		f := tensor.NewMatrix(n, r)
		for i := range f.Data {
			f.Data[i] = rng.Float64()
		}
		factors = append(factors, f)
		grams = append(grams, dense.Gram(f, nil))
	}
	return factors, grams
}

func bitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// startDims has, at each rank below, modes of one partial block, of a
// whole block, and of several blocks plus a partial one, and an empty mode.
func startDims(r int) []int {
	block := max(4, startBlock/r/4*4)
	return []int{3, block, 2*block + 7, 0, block + 1}
}

// TestRandomStartMatchesMathRand holds the start-up's factors and Grams to
// math/rand plus dense.Gram bit for bit. Normal amd64 builds run the AVX2
// Gram; race builds run the Go passes (check.sh and CI run this package
// under -race).
func TestRandomStartMatchesMathRand(t *testing.T) {
	for _, r := range []int{1, 5, 32} {
		dims := startDims(r)
		for _, threads := range []int{1, 2, 3} {
			for _, seed := range []int64{1, -7} {
				wantF, wantG := mathRandStart(dims, r, seed)
				gotF, gotG := randomStart(dims, r, seed, threads)
				for m := range dims {
					ctx := fmt.Sprintf("R %d, T %d, seed %d, mode %d", r, threads, seed, m)
					bitsEqual(t, ctx+" factor", gotF[m].Data, wantF[m].Data)
					bitsEqual(t, ctx+" Gram", gotG[m].Data, wantG[m].Data)
				}
			}
		}
	}
}

// TestSeededRunMatchesInitialFactors checks that a seeded solve is the
// solve warm-started from math/rand's factors, whose Grams come from
// dense.Gram: the same fits, λ and factors, bit for bit.
func TestSeededRunMatchesInitialFactors(t *testing.T) {
	for _, r := range []int{1, 5, 32} {
		dims := startDims(r)
		dims[3] = 2 // the solve needs every mode non-empty
		tt := tensor.Random(dims, 1500, nil, int64(r))
		eng := NaiveEngine(tt)
		for _, threads := range []int{1, 2, 3} {
			opts := Options{Rank: r, MaxIters: 3, Tol: -1, Seed: 11, Threads: threads}
			got, err := Run(tt.Dims, tt.NormFrobenius(), eng, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.InitialFactors, _ = mathRandStart(dims, r, opts.Seed)
			want, err := Run(tt.Dims, tt.NormFrobenius(), eng, opts)
			if err != nil {
				t.Fatal(err)
			}
			ctx := fmt.Sprintf("R %d, T %d", r, threads)
			bitsEqual(t, ctx+" fits", got.Fits, want.Fits)
			bitsEqual(t, ctx+" lambda", got.Lambda, want.Lambda)
			for m := range dims {
				bitsEqual(t, fmt.Sprintf("%s factor %d", ctx, m), got.Factors[m].Data, want.Factors[m].Data)
			}
		}
	}
}

// TestInitTimeWithinSolve checks the start-up and the MTTKRP times are
// disjoint parts of the solve's wall time.
func TestInitTimeWithinSolve(t *testing.T) {
	tt := tensor.Random([]int{40, 300, 25}, 900, nil, 4)
	eng := NaiveEngine(tt)
	for _, threads := range []int{1, 2} {
		for _, iters := range []int{0, 1, 4} {
			start := time.Now()
			res, err := Run(tt.Dims, tt.NormFrobenius(), eng, Options{Rank: 8, MaxIters: iters, Tol: -1, Seed: 3, Threads: threads})
			wall := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if res.InitTime <= 0 {
				t.Errorf("T %d, %d iterations: InitTime %v, want a positive start-up", threads, iters, res.InitTime)
			}
			if sum := res.InitTime + res.MTTKRPTime; sum > wall {
				t.Errorf("T %d, %d iterations: InitTime %v + MTTKRPTime %v = %v exceeds the solve's %v", threads, iters, res.InitTime, res.MTTKRPTime, sum, wall)
			}
		}
	}
}

// BenchmarkSolveStart times a solve's start-up, the random initial factors
// and their Grams, on dense-heavy's shape (delicious-3d, R = 32) and
// arena-skew's (vast-2015-mc1-3d, R = 64): randomStart at T = 1 and 2,
// against the math/rand fill and one-thread dense.Gram it replaced. The
// allocation of the factors is part of each.
func BenchmarkSolveStart(b *testing.B) {
	for _, shape := range []struct {
		profile string
		rank    int
	}{{"delicious-3d", 32}, {"vast-2015-mc1-3d", 64}} {
		p, err := tensor.ProfileByName(shape.profile)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s/R%d/math-rand", shape.profile, shape.rank), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mathRandStart(p.Dims, shape.rank, int64(i))
			}
		})
		for _, threads := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/R%d/T%d", shape.profile, shape.rank, threads), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					randomStart(p.Dims, shape.rank, int64(i), threads)
				}
			})
		}
	}
}
