package obs

import "strconv"

// pow10 holds the scale factors AppendFixed supports: 10^0 … 10^9.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// AppendFixed appends v as a fixed-point decimal rounded half-up to at
// most digits fractional digits (0–9), trailing zeros trimmed:
// 12.5 at 3 digits is "12.5", 3 is "3", 1e-7 at 6 digits is "0" (and
// -1e-7 is "-0"). It is the number encoding of every hand-rolled obs
// stream — journal and timeline at 6 digits, trace events at 3.
//
// Integer math makes this several times cheaper than strconv's
// fixed-precision path, which routes large values through big-decimal
// conversion. Within the fixed-point range |v| < 9e18/10^digits the scaled
// value fits a uint64; integral values take a direct integer path, since
// above 2^53/10^digits the scaled product is no longer exact. Non-finite
// values and values beyond the range fall back to shortest-float.
func AppendFixed(b []byte, v float64, digits int) []byte {
	scale := pow10[digits]
	neg := v < 0
	if neg {
		v = -v
	}
	if !(v < 9e18/scale) { // NaN, +Inf, or beyond the fixed-point range
		if neg {
			v = -v
		}
		return strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	if neg {
		b = append(b, '-')
	}
	if u := uint64(v); float64(u) == v {
		return strconv.AppendUint(b, u, 10)
	}
	u := uint64(v*scale + 0.5)
	p := uint64(scale)
	b = strconv.AppendUint(b, u/p, 10)
	fp := u % p
	if fp == 0 {
		return b
	}
	for fp%10 == 0 {
		fp /= 10
		digits--
	}
	var tmp [10]byte
	tmp[0] = '.'
	for i := digits; i >= 1; i-- {
		tmp[i] = byte('0' + fp%10)
		fp /= 10
	}
	return append(b, tmp[:digits+1]...)
}
