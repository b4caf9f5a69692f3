package vis

import (
	"math"
	"strconv"
)

// pow10 holds the scales appendFixed supports: 0, 1 or 2 decimals.
var pow10 = [...]uint64{1, 10, 100}

// appendFixed appends x formatted with prec (0–2) decimals, producing
// exactly the bytes of strconv.AppendFloat(dst, x, 'f', prec, 64).
//
// strconv serves 'f' with a precision from its arbitrary-precision
// decimal fallback, which dominates SVG rendering. Here a finite
// |x| < 2^53 is split into an integer mantissa and a binary exponent,
// x = mant·2^e with e ≤ 0, so x·10^prec = mant·10^prec / 2^-e exactly.
// mant·10^prec < 2^60 fits a uint64; the quotient is rounded half to
// even on the remainder, which is the rounding strconv applies to the
// exact decimal value. NaN, ±Inf and larger magnitudes go to strconv.
func appendFixed(dst []byte, x float64, prec int) []byte {
	bits := math.Float64bits(x)
	exp := int(bits>>52) & 0x7ff
	mant := bits & (1<<52 - 1)
	if exp == 0 {
		exp = 1 // subnormal: no implicit bit
	} else {
		mant |= 1 << 52
	}
	shift := 1075 - exp // x = ±mant / 2^shift
	if exp == 0x7ff || shift < 0 {
		return strconv.AppendFloat(dst, x, 'f', prec, 64)
	}
	scale := pow10[prec]
	p := mant * scale
	var q uint64
	switch {
	case shift == 0:
		q = p
	case shift < 64:
		q = p >> shift
		r := p & (1<<shift - 1)
		half := uint64(1) << (shift - 1)
		if r > half || r == half && q&1 == 1 {
			q++
		}
	} // shift ≥ 64: p < 2^60 is below half of 2^shift, so q = 0
	if bits>>63 != 0 {
		dst = append(dst, '-')
	}
	dst = strconv.AppendUint(dst, q/scale, 10)
	if prec == 0 {
		return dst
	}
	dst = append(dst, '.')
	frac := q % scale
	for s := scale / 10; s > 0; s /= 10 {
		dst = append(dst, byte('0'+frac/s%10))
	}
	return dst
}
