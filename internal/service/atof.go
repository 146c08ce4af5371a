package service

import (
	"math"
	"math/big"
	"math/bits"
)

// float64pow10 holds the powers of ten a float64 represents exactly.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// pow10Hi[q] is 10^-q rounded down to 64 bits with the top one set: a high
// word of strconv's detailedPowersOfTen, computed rather than copied. A
// coordinate encoding/json writes has at most 23 decimals.
var pow10Hi = func() (t [31]uint64) {
	for q := range t {
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(q)), nil)
		p.Quo(new(big.Int).Lsh(big.NewInt(1), uint(64+p.BitLen())), p)
		t[q] = p.Rsh(p, uint(p.BitLen()-64)).Uint64()
	}
	return t
}()

// decimalToFloat returns ±man/10^frac correctly rounded, or ok false where
// it cannot be sure and strconv.ParseFloat must decide. Clinger's fast path
// ("How to Read Floating Point Numbers Accurately", PLDI 1990) takes a
// mantissa and a power of ten that are both exact float64s, so one IEEE
// division rounds once; Eisel–Lemire takes the rest.
func decimalToFloat(man uint64, frac int, neg bool) (f float64, ok bool) {
	if man > 1<<53 || frac >= len(float64pow10) {
		return eiselLemire64(man, -frac, neg)
	}
	if f = float64(man) / float64pow10[frac]; neg {
		f = -f
	}
	return f, true
}

// eiselLemire64 is the Eisel–Lemire algorithm (Lemire, "Number Parsing at a
// Gigabyte per Second", SPE 2021) as Go's strconv/eisel_lemire.go has it —
// Copyright 2020 The Go Authors, BSD-style license — for exp10 ≤ 0, and
// with one change: where the product with the truncated power cannot
// settle the result, this declines instead of widening the power to 128
// bits, so the table holds only high words. The section names are those of
// https://nigeltao.github.io/blog/2020/eisel-lemire.html.
func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	// Exp10 Range; a zero that Clinger did not take declines too.
	if man == 0 || -exp10 >= len(pow10Hi) {
		return 0, false
	}

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication; where the Wider Approximation would be needed, decline.
	xHi, xLo := bits.Mul64(man, pow10Hi[-exp10])
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		return 0, false
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2 += 1
	}
	// Within the table a result is normal: no subnormal, Inf or NaN check.
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}
