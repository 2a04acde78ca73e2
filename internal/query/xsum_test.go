package query

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// bigSum is the oracle: an exact big.Float accumulation rounded once to
// float64, the definition ExactSum.Value promises to match.
func bigSum(terms []float64) float64 {
	acc := new(big.Float).SetPrec(valuePrec)
	t := new(big.Float).SetPrec(valuePrec)
	for _, v := range terms {
		acc.Add(acc, t.SetFloat64(v))
	}
	f, _ := acc.Float64()
	return f
}

func randTerms(rng *rand.Rand, n int) []float64 {
	terms := make([]float64, n)
	for i := range terms {
		// Wildly mixed magnitudes: the regime where naive summation
		// loses low-order bits and order starts to matter.
		terms[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		if rng.Intn(10) == 0 {
			terms[i] = -terms[i]
		}
	}
	return terms
}

func TestExactSumMatchesBigFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		terms := randTerms(rng, rng.Intn(300))
		var x ExactSum
		for _, v := range terms {
			x.Add(v)
		}
		got, want := x.Value(), bigSum(terms)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (%d terms): ExactSum %g (%x), big.Float %g (%x)",
				trial, len(terms), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestExactSumPartitionIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 100; trial++ {
		terms := randTerms(rng, 1+rng.Intn(200))
		var whole ExactSum
		for _, v := range terms {
			whole.Add(v)
		}

		nparts := 1 + rng.Intn(5)
		parts := make([]ExactSum, nparts)
		for _, v := range terms {
			parts[rng.Intn(nparts)].Add(v)
		}
		var merged ExactSum
		for i := range parts {
			merged.Merge(&parts[i])
		}
		if a, b := whole.Value(), merged.Value(); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("trial %d: whole %g != merged %g", trial, a, b)
		}

		// Wire round-trip: Terms → AddTerm/setFlags reproduces the state.
		var rt ExactSum
		ts, nan, pos, neg := merged.Terms()
		for _, v := range ts {
			rt.AddTerm(v)
		}
		rt.setFlags(nan, pos, neg)
		if a, b := merged.Value(), rt.Value(); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("trial %d: round-trip %g != %g", trial, b, a)
		}
	}
}

func TestExactSumNonFinite(t *testing.T) {
	add := func(vals ...float64) float64 {
		var x ExactSum
		for _, v := range vals {
			x.Add(v)
		}
		return x.Value()
	}
	if v := add(1, math.Inf(1), 2); !math.IsInf(v, 1) {
		t.Errorf("+Inf sum = %g", v)
	}
	if v := add(math.Inf(-1), 5); !math.IsInf(v, -1) {
		t.Errorf("-Inf sum = %g", v)
	}
	if v := add(math.Inf(1), math.Inf(-1)); !math.IsNaN(v) {
		t.Errorf("+Inf + -Inf = %g, want NaN", v)
	}
	if v := add(math.NaN(), 1, 2); !math.IsNaN(v) {
		t.Errorf("NaN sum = %g, want NaN", v)
	}
	if v := add(); v != 0 {
		t.Errorf("empty sum = %g, want 0", v)
	}
	// Running-sum overflow saturates like IEEE accumulation.
	if v := add(math.MaxFloat64, math.MaxFloat64); !math.IsInf(v, 1) {
		t.Errorf("overflowing sum = %g, want +Inf", v)
	}
	if v := add(-math.MaxFloat64, -math.MaxFloat64, 1); !math.IsInf(v, -1) {
		t.Errorf("overflowing negative sum = %g, want -Inf", v)
	}
	// Flags are order-independent: merging {+Inf} into {-Inf} equals
	// adding both to one state.
	var a, b ExactSum
	a.Add(math.Inf(1))
	b.Add(math.Inf(-1))
	a.Merge(&b)
	if v := a.Value(); !math.IsNaN(v) {
		t.Errorf("merged ±Inf = %g, want NaN", v)
	}
}

func TestExactSumCancellation(t *testing.T) {
	// Classic catastrophic-cancellation cases where naive left-to-right
	// summation returns the wrong answer outright.
	cases := [][]float64{
		{1e308, 1, -1e308},
		{1e16, 1, -1e16},
		{1e300, 1e300, -1e300, -1e300, 3.5},
		{1, 1e-300, -1, 1e-300},
	}
	for _, terms := range cases {
		var x ExactSum
		for _, v := range terms {
			x.Add(v)
		}
		got, want := x.Value(), bigSum(terms)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%v: got %g, want %g", terms, got, want)
		}
	}
}

// TestExactSumSpill forces residuals out of the two heads — each trial
// mixes magnitudes more than 2^53 apart — and checks every prefix
// against big.Float, reading Value (which normalizes in place) midway.
func TestExactSumSpill(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	spilled := 0
	for trial := 0; trial < 100; trial++ {
		terms := randTerms(rng, 2+rng.Intn(60))
		terms[0], terms[1] = 1e300*rng.NormFloat64(), 1e-300*rng.NormFloat64()
		if trial%2 == 0 {
			terms = append(terms, -terms[0]) // cancel the large head
		}
		var x ExactSum
		for i, v := range terms {
			x.Add(v)
			if len(x.terms) > 0 {
				spilled++
			}
			if i%7 != 0 && i != len(terms)-1 {
				continue
			}
			got, want := x.Value(), bigSum(terms[:i+1])
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d after %d terms: ExactSum %g, big.Float %g", trial, i+1, got, want)
			}
		}
	}
	if spilled == 0 {
		t.Fatal("no trial reached the spill expansion")
	}
}

// TestExactSumCanonicalTerms checks the wire form: Terms is a function
// of the exact sum alone (any order of the inputs gives the same terms),
// each term is the correctly rounded remainder, and decoding the terms
// into a fresh sum is a fixed point of both Value and Terms.
func TestExactSumCanonicalTerms(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sameTerms := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	for trial := 0; trial < 200; trial++ {
		var terms []float64
		switch trial % 4 {
		case 0:
			terms = randTerms(rng, 1+rng.Intn(100))
		case 1: // like-magnitude data: the heads alone
			for i := rng.Intn(50); i >= 0; i-- {
				terms = append(terms, rng.Float64())
			}
		case 2: // nothing but negative zeros
			terms = []float64{math.Copysign(0, -1), math.Copysign(0, -1)}
		default:
			terms = []float64{1, math.Ldexp(1, -54), -0.75, 1e-40 * rng.Float64()}
		}
		var x ExactSum
		for _, v := range terms {
			x.Add(v)
		}
		ts, _, _, _ := x.Terms()
		ts = append([]float64(nil), ts...)
		for i := len(ts) - 1; i >= 0; i-- {
			// (bigSum starts from +0, so a lone -0 compares by value.)
			if want := bigSum(ts[:i+1]); math.Float64bits(ts[i]) != math.Float64bits(want) && (len(ts) > 1 || ts[i] != want) {
				t.Fatalf("trial %d: term %d of %v is not the rounded remainder %g", trial, i, ts, want)
			}
		}

		var shuffled ExactSum
		for _, i := range rng.Perm(len(terms)) {
			shuffled.Add(terms[i])
		}
		if st, _, _, _ := shuffled.Terms(); !sameTerms(st, ts) {
			t.Fatalf("trial %d: terms depend on input order: %v vs %v", trial, st, ts)
		}

		var rt ExactSum
		for _, v := range ts {
			rt.AddTerm(v)
		}
		if a, b := x.Value(), rt.Value(); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("trial %d: round-trip value %g != %g", trial, b, a)
		}
		if rts, _, _, _ := rt.Terms(); !sameTerms(rts, ts) {
			t.Fatalf("trial %d: round-trip terms %v != %v", trial, rts, ts)
		}
	}
	var empty ExactSum
	if ts, _, _, _ := empty.Terms(); len(ts) != 0 {
		t.Errorf("empty sum has terms %v", ts)
	}
}
