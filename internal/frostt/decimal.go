package frostt

import "encoding/binary"

// maxMantDigits is the number of significant digits the mantissa keeps:
// 10^19 fits in a uint64. strconv keeps as many.
const maxMantDigits = 19

// pow10 holds the powers of ten that a float64 holds exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// parseValue parses the decimal number at the start of s in place: an
// optional sign, digits with an optional point, and an optional exponent.
// It returns the value, correctly rounded as strconv.ParseFloat rounds it,
// and the bytes the number takes. It reports false, leaving the number to
// strconv, when s does not start with such a number or when the fast path
// cannot settle the rounding:
//   - a mantissa below 2^53 with a decimal exponent within ±22 takes one
//     exact float multiply or divide (Clinger's exact case);
//   - any other mantissa of up to 19 significant digits goes through
//     Eisel–Lemire, which reports false for a decimal exponent outside
//     ±64 and for the rare inputs it cannot round; of those, a number
//     that is a binary fraction goes through binaryFraction;
//   - past 19 digits the mantissa m keeps the first 19, and the value is
//     taken only when m and m+1 round to the same float64, as strconv's
//     own fast path does.
func parseValue(s []byte) (float64, int, bool) {
	i := 0
	neg := false
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		neg = s[i] == '-'
		i++
	}
	var (
		man     uint64 // the first nd significant digits
		nd      int
		dropped int  // significant digits past maxMantDigits
		trunc   bool // a dropped digit is not zero
	)
	start := i
	for i < len(s) && s[i] == '0' {
		i++
	}
	i, man, nd = digits(s, i, man, nd)
	for ; i < len(s) && isDigit(s[i]); i++ {
		dropped++
		trunc = trunc || s[i] != '0'
	}
	seen := i > start
	exp := dropped
	if i < len(s) && s[i] == '.' {
		i++
		frac := i
		if nd == 0 {
			for i < len(s) && s[i] == '0' {
				i++
			}
		}
		i, man, nd = digits(s, i, man, nd)
		seen = seen || i > frac
		exp -= i - frac
		for ; i < len(s) && isDigit(s[i]); i++ {
			trunc = trunc || s[i] != '0'
		}
	}
	if !seen {
		return 0, 0, false
	}
	if i < len(s) && s[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			eneg = s[i] == '-'
			i++
		}
		if i == len(s) || !isDigit(s[i]) {
			return 0, 0, false
		}
		e := 0
		for ; i < len(s) && isDigit(s[i]); i++ {
			if e < 10000 {
				e = e*10 + int(s[i]-'0')
			}
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if !trunc && man>>53 == 0 && -22 <= exp && exp <= 22 {
		f := float64(man)
		if neg {
			f = -f
		}
		if exp < 0 {
			return f / pow10[-exp], i, true
		}
		return f * pow10[exp], i, true
	}
	f, ok := convert(man, exp, neg)
	if !ok || !trunc {
		return f, i, ok
	}
	up, ok := convert(man+1, exp, neg)
	return f, i, ok && up == f
}

// convert returns man·10^exp correctly rounded, through Eisel–Lemire or,
// where it declines, binaryFraction.
func convert(man uint64, exp int, neg bool) (float64, bool) {
	if f, ok := eiselLemire64(man, exp, neg); ok {
		return f, true
	}
	return binaryFraction(man, exp, neg)
}

// pow5 holds the powers of five that fit a uint64.
var pow5 = func() (p [28]uint64) {
	p[0] = 1
	for q := 1; q < len(p); q++ {
		p[q] = 5 * p[q-1]
	}
	return p
}()

// binaryFraction converts man·10^exp when 5^-exp divides man, so that the
// number is (man/5^-exp)·2^exp: the integer conversion rounds it once, and
// the scaling by a power of two is exact. Eisel–Lemire declines some of
// these, such as 38540798119269965e-1, which a float64 holds exactly.
func binaryFraction(man uint64, exp int, neg bool) (float64, bool) {
	if exp >= 0 || -exp >= len(pow5) || man%pow5[-exp] != 0 {
		return 0, false
	}
	f := float64(man/pow5[-exp]) / float64(uint64(1)<<-exp)
	if neg {
		f = -f
	}
	return f, true
}

// isDigit reports whether c is an ASCII decimal digit.
func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits appends the run of decimal digits at s[i:] to the mantissa man of
// nd digits, eight at a time while they fit, and stops before the run ends
// if man would pass maxMantDigits digits. It returns the index after the
// digits it took, and the new man and nd.
func digits(s []byte, i int, man uint64, nd int) (int, uint64, int) {
	for nd <= maxMantDigits-8 && len(s)-i >= 8 {
		w := binary.LittleEndian.Uint64(s[i:])
		if !eightDigits(w) {
			break
		}
		man = man*1e8 + eightDigitsValue(w)
		nd += 8
		i += 8
	}
	for ; i < len(s) && nd < maxMantDigits && isDigit(s[i]); i++ {
		man = man*10 + uint64(s[i]-'0')
		nd++
	}
	return i, man, nd
}

// eightDigits reports whether all eight bytes of w are ASCII digits. A
// byte above '9' sets its top bit in the sum, and a byte below '0' sets it
// in the difference.
func eightDigits(w uint64) bool {
	return ((w+0x4646464646464646)|(w-0x3030303030303030))&0x8080808080808080 == 0
}

// eightDigitsValue returns the number that the eight ASCII digits of w
// spell, its first digit in the lowest byte, in three multiply steps: pairs
// of digits, then quads, then the whole word.
func eightDigitsValue(w uint64) uint64 {
	w -= 0x3030303030303030
	w = w*10 + w>>8
	return ((w&0x000000FF000000FF)*(100+1000000<<32) + (w>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
}
