package query

import (
	"math"
	"math/big"
)

// ExactSum accumulates float64 terms without rounding error, so that
// partial sums computed independently on cluster legs merge to the exact
// same final value as a single-node pass regardless of partitioning or
// merge order.
//
// The running sum is held as two head components plus a spill
// expansion, and the exact mathematical sum of all of them is the sum
// of every finite term added. Add is O(1): two error-free twoSum steps
// cascade the term through the heads (a dozen flops, no branch but the
// last), and only a residual the heads cannot hold — a term more than
// ~2^53 times smaller than the running sum's rounding errors — enters
// the spill, a Shewchuk grow-expansion that realistic data leaves empty.
// Rounding to a final float64 happens once, at finalize time.
//
// Terms and Value first normalize the state into one canonical
// expansion, a function of the exact sum alone: the largest term is the
// correctly rounded sum, the next the correctly rounded remainder, and
// so on. The wire form of a sum therefore does not depend on the order
// or partitioning that produced it, and decoding it term by term into a
// fresh sum normalizes back to the same terms.
//
// Non-finite inputs cannot participate in an expansion; they are folded
// into commutative flags with IEEE semantics (+Inf + -Inf = NaN), so the
// result is still independent of accumulation order.
type ExactSum struct {
	// The heads, larger and smaller (the rounding errors of the larger),
	// both stored negated so that the zero value holds -0 in each. -0 is
	// the identity of IEEE addition: a sum of nothing but -0 terms stays
	// -0, as a float64 accumulation would. And a rounding error is never
	// -0, so a smaller head of -0 says no term has reached the heads.
	nhi, nlo float64
	terms    []float64 // spill: nonoverlapping expansion, increasing magnitude
	neg      bool      // saw -Inf
	pos      bool      // saw +Inf
	nan      bool      // saw NaN
}

// twoSum returns s = fl(a+b) and the exact rounding error e with
// a + b = s + e (Knuth's branch-free error-free transformation). If s
// is not finite, e is NaN.
func twoSum(a, b float64) (s, e float64) {
	s = a + b
	bv := s - a
	av := s - bv
	br := b - bv
	ar := a - av
	return s, ar + br
}

// Add folds one value into the sum.
func (x *ExactSum) Add(v float64) {
	s, e := twoSum(-x.nhi, v)
	l, r := twoSum(-x.nlo, e)
	if r != 0 {
		// A residual, or NaN: v or a head sum was not finite.
		x.addSlow(v)
		return
	}
	x.nhi, x.nlo = -s, -l
}

// addSlow is Add for the cases the head cascade cannot absorb.
func (x *ExactSum) addSlow(v float64) {
	switch {
	case v != v:
		x.nan = true
		return
	case math.IsInf(v, 1):
		x.pos = true
		return
	case math.IsInf(v, -1):
		x.neg = true
		return
	}
	s, e := twoSum(-x.nhi, v)
	l, r := twoSum(-x.nlo, e)
	if r == r {
		x.nhi, x.nlo = -s, -l
		x.grow(r)
		return
	}
	// The heads overflowed. The spill may hold terms that cancel the
	// excess, so let the whole expansion decide whether the sum has.
	x.spillHeads()
	x.grow(v)
}

// headsEmpty reports whether no term has reached the heads.
func (x *ExactSum) headsEmpty() bool { return math.Float64bits(x.nlo) == 0 }

// spillHeads moves the heads into the spill expansion.
func (x *ExactSum) spillHeads() {
	if x.headsEmpty() {
		return
	}
	hi, lo := -x.nhi, -x.nlo
	x.nhi, x.nlo = 0, 0
	if lo != 0 {
		x.grow(lo)
	}
	x.grow(hi)
}

// grow adds one finite value to the spill by Shewchuk's grow-expansion:
// carry it through the existing terms, keeping only nonzero rounding
// errors (zero elimination keeps the slice short).
func (x *ExactSum) grow(q float64) {
	out := x.terms[:0]
	for _, t := range x.terms {
		var err float64
		q, err = twoSum(q, t)
		if err != 0 {
			out = append(out, err)
		}
	}
	if math.IsInf(q, 0) {
		// The running sum overflowed float64 (the rounding errors
		// recorded past that point are garbage). Saturate the way IEEE
		// accumulation would: the sum is ±Inf from here on. Exactness —
		// and with it partition-independence — holds only while every
		// running sum stays in range.
		x.saturate(q)
		return
	}
	if q != 0 || len(out) == 0 {
		out = append(out, q)
	}
	x.terms = out
}

// saturate turns the sum into the infinity of q's sign.
func (x *ExactSum) saturate(q float64) {
	x.pos = x.pos || q > 0
	x.neg = x.neg || q < 0
	x.nhi, x.nlo, x.terms = 0, 0, x.terms[:0]
}

// Merge folds another exact sum into x. Because both sides are exact,
// the merged state equals accumulating every input term directly, in any
// order.
func (x *ExactSum) Merge(y *ExactSum) {
	for _, t := range y.terms {
		x.Add(t)
	}
	if !y.headsEmpty() {
		if y.nlo != 0 {
			x.Add(-y.nlo)
		}
		x.Add(-y.nhi)
	}
	x.setFlags(y.nan, y.pos, y.neg)
}

// Terms normalizes the sum and returns its canonical expansion terms, in
// increasing magnitude, plus the non-finite flags for wire encoding;
// AddTerm-ing them into a fresh ExactSum reproduces the state.
func (x *ExactSum) Terms() (terms []float64, nan, pos, neg bool) {
	x.normalize()
	return x.terms, x.nan, x.pos, x.neg
}

// AddTerm folds one wire term back in; t may be non-finite.
func (x *ExactSum) AddTerm(t float64) { x.Add(t) }

// setFlags ORs the wire non-finite flags in.
func (x *ExactSum) setFlags(nan, pos, neg bool) {
	x.nan = x.nan || nan
	x.pos = x.pos || pos
	x.neg = x.neg || neg
}

// valuePrec is the big.Float precision used to canonicalize a long
// expansion. Any sum of float64 terms spans at most ~2100 bits of
// significand (exponent range 2^-1074 .. 2^1024 plus carry growth), so
// 2200 bits makes the big.Float arithmetic exact and every rounding to
// float64 correct — and therefore identical for every decomposition of
// the same mathematical sum.
const valuePrec = 2200

// normalize moves the whole sum into x.terms in canonical form: the last
// term is the sum correctly rounded to float64, the one before it the
// correctly rounded remainder, and so on down to an exact zero
// remainder.
func (x *ExactSum) normalize() {
	x.spillHeads()
	switch len(x.terms) {
	case 0, 1:
		return
	case 2:
		// One twoSum rounds a pair correctly and leaves the remainder.
		s, e := twoSum(x.terms[1], x.terms[0])
		switch {
		case math.IsInf(s, 0):
			x.saturate(s)
		case e == 0:
			x.terms = append(x.terms[:0], s)
		default:
			x.terms[0], x.terms[1] = e, s
		}
		return
	}
	acc := new(big.Float).SetPrec(valuePrec)
	t := new(big.Float).SetPrec(valuePrec)
	for _, v := range x.terms {
		acc.Add(acc, t.SetFloat64(v))
	}
	out := x.terms[:0]
	for acc.Sign() != 0 {
		f, _ := acc.Float64()
		if math.IsInf(f, 0) {
			x.saturate(f)
			return
		}
		out = append(out, f)
		acc.Sub(acc, t.SetFloat64(f))
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	x.terms = out
}

// Value rounds the exact sum to the nearest float64.
func (x *ExactSum) Value() float64 {
	x.normalize() // may saturate, so before the flags are read
	switch {
	case x.nan, x.pos && x.neg:
		return math.NaN()
	case x.pos:
		return math.Inf(1)
	case x.neg:
		return math.Inf(-1)
	}
	if len(x.terms) == 0 {
		return 0
	}
	return x.terms[len(x.terms)-1]
}
