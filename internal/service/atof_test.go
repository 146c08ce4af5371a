package service

import (
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// numberEdges are the tokens where a fast conversion is likeliest to go
// wrong: signed zeros, subnormals, the mantissas either side of 2^53 and of
// 19 digits, halfway cases, and decimals at and beyond the table's edges.
var numberEdges = []string{
	"0", "-0", "0.0", "-0.0", "0e0", "-0E-5", "0.000", "0e400", "0.0000000000000000000000000000000000",
	"5e-324", "4.9406564584124654e-324", "2.4703282292062328e-324", "2.2250738585072011e-308",
	"2.2250738585072014e-308", "1.7976931348623157e308", "1.7976931348623159e308",
	// 2^53 ± a little: Clinger takes 2^53 itself, Eisel–Lemire the rest.
	"9007199254740991", "9007199254740992", "9007199254740993", "9007199254740994", "9007199254740995",
	"9007199254740993.0", "-9007199254740993", "18014398509481986", "18014398509481990",
	"900719925474099.3", "90071992547409.93", "9.007199254740993", "0.9007199254740993",
	// Halfway between two float64s, written exactly.
	"4503599627370497.5", "4503599627370498.5", "1152921504606847104", "1152921504606847360",
	"9007199254740993e1", "9007199254740993e-3", "1.00000000000000011102230246251565404236316680908203125",
	// 19, 20 and 25 significant digits.
	"1234567890123456789", "9999999999999999999", "0.1234567890123456789", "1.234567890123456789",
	"0.0000001234567890123456789", "12345678901234567890", "99999999999999999999", "1.0000000000000000001",
	"10000000000000000000", "1234567890123456789012345", "0.1000000000000000055511151231257827",
	"9007199254740993.000000000",
	// Clinger takes up to 22 decimals, the table 30; an exponent part
	// always goes to strconv.
	"0.0000000000000000000001", "0.00000000000000000000001", "0.0000000000000000000000009007199254740993",
	"0.000000000000000000000000000001", "0.0000000000000000000000000000001", "0.0000000000001234567890123456789",
	"0.000000000009999999999999999999", "0.0000000000009999999999999999999", "-0.000000000000000000000000000000",
	"1e22", "1e23", "9007199254740993e-22", "1e30", "1e-31", "1e999", "1e0001", "1e-0001",
	"1e309", "-1e309", "1e-400", "-1e-400", "1.5e+07", "-2.5E-3",
}

// numberVerdict holds one token to strconv.ParseFloat: the scanner must
// read all of it and agree on the value's bits, or both must refuse it.
func numberVerdict(t *testing.T, tok string) {
	t.Helper()
	s := bodyScanner{b: []byte(tok)}
	got, err := s.number()
	want, werr := strconv.ParseFloat(tok, 64)
	switch {
	case (err == nil) != (werr == nil):
		t.Errorf("%s: scanner error %v, ParseFloat error %v", tok, err, werr)
	case err == nil && s.i != len(tok):
		t.Errorf("%s: scanner stopped at offset %d", tok, s.i)
	case err == nil && math.Float64bits(got) != math.Float64bits(want):
		t.Errorf("%s: scanner %v (%#x), ParseFloat %v (%#x)", tok, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestNumberMatchesParseFloat: the number path gives ParseFloat's bits on
// the edges above and on seeded random float64s in every form and
// precision strconv writes them, and refuses what ParseFloat refuses.
func TestNumberMatchesParseFloat(t *testing.T) {
	for _, tok := range numberEdges {
		numberVerdict(t, tok)
	}
	for _, tok := range []string{"1e309", "-1e309"} {
		if _, err := (&bodyScanner{b: []byte(tok)}).number(); err == nil {
			t.Errorf("%s: no error", tok)
		}
	}
	for _, tok := range []string{"1e-400", "-1e-400"} {
		if f, err := (&bodyScanner{b: []byte(tok)}).number(); err != nil || f != 0 {
			t.Errorf("%s = %v, %v; want 0", tok, f, err)
		}
	}

	rng := rand.New(rand.NewSource(52))
	for n := 0; n < 3000; n++ {
		var f float64
		switch n % 3 {
		case 0: // any finite float64
			if f = math.Float64frombits(rng.Uint64()); math.IsNaN(f) || math.IsInf(f, 0) {
				continue
			}
		case 1: // a coordinate
			f = (rng.Float64() - 0.5) * 360
		default: // around 2^53
			f = math.Ldexp(1+rng.Float64(), 52+rng.Intn(3))
		}
		for _, form := range []byte{'f', 'e', 'g'} {
			for prec := -1; prec <= 17; prec++ {
				numberVerdict(t, strconv.FormatFloat(f, form, prec, 64))
			}
		}
		if t.Failed() {
			t.FailNow()
		}
	}
}

// FuzzNumber holds the number path to strconv.ParseFloat on any bytes:
// whatever prefix the scanner takes as a number converts to ParseFloat's
// bits, and an input that is one valid JSON number token is refused exactly
// where ParseFloat refuses it.
func FuzzNumber(f *testing.F) {
	for _, tok := range numberEdges {
		f.Add(tok)
	}
	f.Add("-")
	f.Add("1.")
	f.Add("01")
	f.Add("1e+")
	f.Add("12,")
	f.Fuzz(func(t *testing.T, in string) {
		s := bodyScanner{b: []byte(in)}
		got, err := s.number()
		if err == nil {
			tok := in[:s.i]
			want, werr := strconv.ParseFloat(tok, 64)
			if werr != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%q: scanner takes %q as %v (%#x); ParseFloat %v (%#x), %v",
					in, tok, got, math.Float64bits(got), want, math.Float64bits(want), werr)
			}
		}
		last := len(in) - 1
		if last >= 0 && (in[0] == '-' || '0' <= in[0] && in[0] <= '9') && '0' <= in[last] && in[last] <= '9' && json.Valid([]byte(in)) {
			numberVerdict(t, in)
		}
	})
}
