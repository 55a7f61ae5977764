package tensor

import "math/rand"

// The lags of math/rand's additive lagged Fibonacci generator: its n-th
// output is x_n = x_{n−607} + x_{n−273} (mod 2^64).
const (
	uniformLen = 607
	uniformTap = 273
)

// Uniform draws the value stream of (*rand.Rand).Float64 on
// rand.NewSource(seed), bit for bit, without an interface call per value.
// It primes a ring with the source's first 607 outputs, then continues the
// generator's recurrence itself, 607 outputs per refill. Each output x
// becomes the value (x mod 2^63) / 2^63; an output whose value rounds to
// 1 is skipped, as Float64 redraws it.
type Uniform struct {
	ring [uniformLen]uint64 // 607 consecutive outputs, in order
	next int                // ring[next:] are not drawn yet
}

// NewUniform returns the stream of rand.New(rand.NewSource(seed)).Float64.
func NewUniform(seed int64) *Uniform {
	src := rand.NewSource(seed).(rand.Source64)
	u := &Uniform{}
	for i := range u.ring {
		u.ring[i] = src.Uint64()
	}
	return u
}

// Fill overwrites dst with the stream's next len(dst) values.
func (u *Uniform) Fill(dst []float64) {
	for len(dst) > 0 {
		if u.next == len(u.ring) {
			u.refill()
			u.next = 0
		}
		n, used := uniforms(dst, u.ring[u.next:]) //gate:allow bounds once per ring refill, not per value
		dst = dst[n:]                             //gate:allow bounds once per ring refill, not per value
		u.next += used
	}
}

// refill overwrites the ring's outputs x_k … x_{k+606} with x_{k+607} …
// x_{k+1213}, in place: x_{k+607+j} = x_{k+j} + x_{k+334+j}, where the
// second term is an old output for j < 273 and a new one after.
func (u *Uniform) refill() {
	x := &u.ring
	for j := 0; j < uniformTap; j++ {
		x[j] += x[j+uniformLen-uniformTap]
	}
	for j := uniformTap; j < uniformLen; j++ {
		x[j] += x[j-uniformTap]
	}
}

// uniforms converts generator outputs into values in dst, in order, as
// (*rand.Rand).Float64 does. It stops after the first output whose value
// rounds to 1, which it skips, and returns the values written and the
// outputs used.
func uniforms(dst []float64, raw []uint64) (n, used int) {
	m := min(len(dst), len(raw))
	d, x := dst[:m], raw[:m]
	for i, v := range x {
		f := float64(int64(v&(1<<63-1))) / (1 << 63)
		if f == 1 {
			return i, i + 1
		}
		d[i] = f
	}
	return m, m
}

// RandomFactors returns one random factor matrix per mode of dims, each with
// rank columns, seeded deterministically from seed: mode by mode, the
// values of rand.New(rand.NewSource(seed)).Float64 in row-major order.
func RandomFactors(dims []int, rank int, seed int64) []*Matrix {
	u := NewUniform(seed)
	fs := make([]*Matrix, len(dims))
	for m, n := range dims {
		fs[m] = NewMatrix(n, rank)
		u.Fill(fs[m].Data)
	}
	return fs
}
