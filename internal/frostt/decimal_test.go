package frostt

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// checkValue holds parseValue to strconv.ParseFloat on s. Whatever prefix
// the fast path takes must parse to the same bits under strconv, and the
// fast path must not take the whole of a string strconv rejects. It
// reports whether the fast path took the whole string.
func checkValue(t *testing.T, s string) bool {
	t.Helper()
	v, n, ok := parseValue([]byte(s))
	if !ok {
		return false
	}
	want, err := strconv.ParseFloat(s[:n], 64)
	if err != nil {
		t.Fatalf("%q: fast path took %q as %v, strconv rejects it: %v", s, s[:n], v, err)
	}
	if math.Float64bits(v) != math.Float64bits(want) {
		t.Fatalf("%q: fast path %v (%#x), strconv %v (%#x)", s[:n], v, math.Float64bits(v), want, math.Float64bits(want))
	}
	return n == len(s)
}

// mustTake is checkValue for an input the fast path must take whole.
func mustTake(t *testing.T, s string) {
	t.Helper()
	if !checkValue(t, s) {
		t.Fatalf("%q: fast path did not take it", s)
	}
}

// tableExp reports whether the decimal exponent of the integer mantissa of
// x's shortest decimal form lies inside detailedPowersOfTen.
func tableExp(x float64) bool {
	e := strconv.FormatFloat(x, 'e', -1, 64) // d.ddde±XX
	mant, exp, _ := strings.Cut(e, "e")
	x10, err := strconv.Atoi(exp)
	if err != nil {
		panic("frostt: test: " + e)
	}
	digits := len(strings.TrimLeft(mant, "-")) - 1
	if strings.Contains(mant, ".") {
		digits--
	}
	e10 := x10 - digits
	return detailedPowersOfTenMinExp10 <= e10 && e10 <= detailedPowersOfTenMaxExp10
}

// TestParseValueOracle holds the value fast path to strconv.ParseFloat bit
// for bit: on shortest forms of random bit patterns, which it must take
// whenever their exponent lies inside the power table; on 'e' and 'f'
// forms of 15 to 20 digits, which it must take from 17 digits on; on
// decimal midpoints between adjacent float64s; at the edges of Clinger's
// exact case; on signed zeros, padded zeros, subnormals and overflow; and
// on the forms it must leave to strconv.
func TestParseValueOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inTable, fast := 0, 0
	for k := 0; k < 1<<20; k++ {
		x := math.Float64frombits(rng.Uint64())
		s := strconv.FormatFloat(x, 'g', -1, 64)
		if math.IsNaN(x) || math.IsInf(x, 0) {
			if checkValue(t, s) {
				t.Fatalf("%q: fast path took it", s)
			}
			continue
		}
		if tableExp(x) {
			inTable++
			mustTake(t, s)
		}
		if checkValue(t, s) {
			fast++
		}
	}
	t.Logf("random bit patterns: %d of %d inside the table, %d taken", inTable, 1<<20, fast)
	// Magnitudes a .tns file holds, at every precision around the 19-digit
	// mantissa limit.
	for k := 0; k < 1<<17; k++ {
		x := (0.5 + rng.Float64()) * math.Pow(10, float64(rng.Intn(61)-30))
		if k&1 == 1 {
			x = -x
		}
		mustTake(t, strconv.FormatFloat(x, 'g', -1, 64))
		// From 17 digits on, a rounding of x lies closer to x than to any
		// midpoint between float64s, and only a number exactly on such a
		// boundary can stop the fast path.
		for p := 15; p <= 20; p++ {
			forms := []string{strconv.FormatFloat(x, 'e', p-1, 64)}
			if dec := p - 1 - int(math.Floor(math.Log10(math.Abs(x)))); dec >= 0 {
				forms = append(forms, strconv.FormatFloat(x, 'f', dec, 64))
			}
			for _, s := range forms {
				if !checkValue(t, s) && p >= 17 {
					t.Fatalf("%q: fast path did not take it", s)
				}
			}
		}
		// The midpoint between x and the next float64 up, rounded to 17-19
		// digits and written out to 40.
		next := math.Nextafter(x, math.Inf(1))
		mid := new(big.Float).SetPrec(200).SetFloat64(x)
		mid.Add(mid, new(big.Float).SetPrec(200).SetFloat64(next)).Quo(mid, big.NewFloat(2))
		for _, p := range []int{17, 18, 19, 40} {
			checkValue(t, mid.Text('e', p-1))
		}
	}
	// Mantissas at 2^53 and exponents at ±22: the edges of Clinger's case.
	for _, m := range []uint64{1<<53 - 1, 1 << 53, 1<<53 + 1} {
		for _, e := range []int{-23, -22, -1, 0, 1, 22, 23} {
			for _, sign := range []string{"", "-", "+"} {
				checkValue(t, fmt.Sprintf("%s%de%d", sign, m, e))
			}
		}
	}
	for _, s := range []string{
		"0", "-0", "+0", "-0.0", "0e0", "-0e-999", "0e99999999", "000.000",
		"000123.4500", "0.000000000123000", "00000000000000000000000001",
		"1.", ".5", "-.5e-3", "1E5", "1e+05",
		"1.0000000000000000000000000000001", "12345678901234567890123",
		"1e64", "9999999999999999999e64", "1e-64", "1.5e-60",
		"0.6093380231299149", "1.224806826559505", "1.0786041658558903",
	} {
		mustTake(t, s)
	}
	for _, s := range []string{
		"4.9e-324", "5e-324", "2.2250738585072011e-308", "2.2250738585072014e-308",
		"1e308", "1.7976931348623157e308", "1.7976931348623159e308",
		"1e309", "-1e309", "1e65", "1e-65", "1e99999999999",
		"9007199254740993", "9007199254740993e-22",
	} {
		checkValue(t, s)
	}
	for _, s := range []string{
		"inf", "+Inf", "-infinity", "NaN", "nan",
		"0x1p-2", "0X1.8P3", "0x10", "1_000", "1_0.5", "1e1_0",
		"", "+", "-", ".", "e5", "1e", "1e+", "1.5.5", "1.5x",
	} {
		if checkValue(t, s) {
			t.Fatalf("%q: fast path took it", s)
		}
	}
}

// TestPowersOfTenTable checks every row of the ported power table against
// math/big: row e holds ⌊10^e·2^k⌋ for the k that puts it in [2^127, 2^128).
func TestPowersOfTenTable(t *testing.T) {
	if got, want := len(detailedPowersOfTen), detailedPowersOfTenMaxExp10-detailedPowersOfTenMinExp10+1; got != want {
		t.Fatalf("%d rows, want %d", got, want)
	}
	lo := new(big.Int).Lsh(big.NewInt(1), 127)
	hi := new(big.Int).Lsh(big.NewInt(1), 128)
	for i, row := range detailedPowersOfTen {
		e := detailedPowersOfTenMinExp10 + i
		num, den := big.NewInt(1), big.NewInt(1)
		if p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil); e >= 0 {
			num = p
		} else {
			den = p
		}
		k := 127 - (num.BitLen() - den.BitLen())
		var want *big.Int
		for {
			n, d := new(big.Int).Set(num), new(big.Int).Set(den)
			if k >= 0 {
				n.Lsh(n, uint(k))
			} else {
				d.Lsh(d, uint(-k))
			}
			want = n.Quo(n, d)
			if want.Cmp(lo) < 0 {
				k++
			} else if want.Cmp(hi) >= 0 {
				k--
			} else {
				break
			}
		}
		got := new(big.Int).Lsh(new(big.Int).SetUint64(row[1]), 64)
		got.Or(got, new(big.Int).SetUint64(row[0]))
		if got.Cmp(want) != 0 {
			t.Errorf("1e%d: row %#x, want %#x", e, got, want)
		}
	}
}
