package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// mathRandFloats returns the first n values of
// rand.New(rand.NewSource(seed)).Float64.
func mathRandFloats(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d is %v, math/rand draws %v", what, i, got[i], want[i])
		}
	}
}

var uniformSeeds = []int64{0, 1, -1, 1<<31 - 1, 1 << 31, math.MinInt64, math.MaxInt64}

// TestUniformMatchesMathRand holds the stream to math/rand's Float64 bit
// for bit: in one Fill of each length around the ring size, and in fills of
// uneven sizes that start and end on every side of a refill.
func TestUniformMatchesMathRand(t *testing.T) {
	for _, seed := range uniformSeeds {
		for _, n := range []int{0, 1, 606, 607, 608, 3 * 607, 5000} {
			got := make([]float64, n)
			NewUniform(seed).Fill(got)
			sameBits(t, "one fill", got, mathRandFloats(seed, n))
		}
		want := mathRandFloats(seed, 20000)
		got := make([]float64, len(want))
		u := NewUniform(seed)
		sizes := []int{1, 605, 1, 1, 606, 607, 608, 0, 1213, 2, 1500}
		for off, k := 0, 0; off < len(got); k++ {
			n := min(sizes[k%len(sizes)], len(got)-off)
			u.Fill(got[off : off+n])
			off += n
		}
		sameBits(t, "uneven fills", got, want)
	}
}

// TestUniformsRedraw covers the branch math/rand takes about once in 2^54
// draws: an output whose value rounds to 1 is skipped. 2^63−513 rounds
// down to 1 − 2^−53; 2^63−512 is the tie, which rounds to even, 1.
func TestUniformsRedraw(t *testing.T) {
	raw := []uint64{1<<63 - 513, 1<<63 - 512, 5, 1<<63 - 1, 1<<64 - 1, 1 << 63, 7}
	want := []float64{1 - 0x1p-53, 5 * 0x1p-63, 0, 7 * 0x1p-63}
	var got []float64
	for rest := raw; len(rest) > 0; {
		dst := make([]float64, len(raw))
		n, used := uniforms(dst, rest)
		got = append(got, dst[:n]...)
		rest = rest[used:]
	}
	if len(got) != len(want) {
		t.Fatalf("%d values from the outputs, want %d: %v", len(got), len(want), got)
	}
	sameBits(t, "redraw", got, want)
	// A full destination stops the conversion before the output it would
	// skip, so a fill never consumes an output it has no room for.
	if n, used := uniforms(make([]float64, 1), raw); n != 1 || used != 1 {
		t.Fatalf("one-value destination: wrote %d from %d outputs, want 1 from 1", n, used)
	}
	if n, used := uniforms(nil, raw); n != 0 || used != 0 {
		t.Fatalf("empty destination: wrote %d from %d outputs, want 0 from 0", n, used)
	}
}

// TestUniformFactorsMatchMathRand checks RandomFactors draws its modes one
// after another from the one stream, as the math/rand loop it replaced
// did.
func TestUniformFactorsMatchMathRand(t *testing.T) {
	dims := []int{300, 1, 0, 77}
	fs := RandomFactors(dims, 7, 42)
	var got []float64
	for _, f := range fs {
		got = append(got, f.Data...)
	}
	sameBits(t, "factors", got, mathRandFloats(42, len(got)))
}
