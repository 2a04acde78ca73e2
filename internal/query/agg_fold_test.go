package query

import (
	"encoding/hex"
	"math"
	"math/big"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"datavirt/internal/schema"
	"datavirt/internal/sqlparser"
)

// Differential tests of the block-wise fold: ObserveBatch, ObserveRow and
// an oracle written against math/big and the documented semantics must
// agree bit for bit on finalized rows, however the rows are cut into
// blocks, and again after the partials travel through their wire form.

// foldCols is the working layout of every fold case: three candidate
// key columns (a Long, a Double, an Int) and two aggregate inputs.
var foldCols = []schema.Attribute{
	{Name: "K0", Kind: schema.Long},
	{Name: "K1", Kind: schema.Double},
	{Name: "K2", Kind: schema.Int},
	{Name: "V", Kind: schema.Long},
	{Name: "W", Kind: schema.Double},
}

const foldAggs = "COUNT(*), SUM(V), MIN(V), MAX(V), AVG(V), SUM(W), AVG(W), MIN(W), MAX(W)"

// foldPlan groups by the first nk key columns (none: a global aggregate).
func foldPlan(tb testing.TB, nk int) *AggPlan {
	tb.Helper()
	sql := "SELECT " + foldAggs + " FROM T"
	if nk > 0 {
		keys := []string{"K0", "K1", "K2"}[:nk]
		sql = "SELECT " + strings.Join(keys, ", ") + ", " + foldAggs + " FROM T GROUP BY " + strings.Join(keys, ", ")
	}
	plan, err := BuildAggPlan(sqlparser.MustParse(sql), schema.MustNew("T", foldCols))
	if err != nil {
		tb.Fatal(err)
	}
	err = plan.Bind(func(name string) (int, bool) {
		for i, c := range foldCols {
			if c.Name == name {
				return i, true
			}
		}
		return 0, false
	})
	if err != nil {
		tb.Fatal(err)
	}
	return plan
}

// Key patterns of a generated case.
const (
	keysOneRun = iota
	keysAlternating
	keysRandom
	keysAllDistinct // more groups than any block has rows
	numKeyPatterns
)

// Selections of a generated case.
const (
	selFull = iota
	selSparse
	selEmpty
	numSelModes
)

// foldCase is one generated input.
type foldCase struct {
	nk       int
	rows     [][]schema.Value
	sel      []int32 // rows that are folded
	overflow bool    // W holds values whose running sums leave float64's range
}

var (
	// Long keys beyond 2^53 are distinct as integers but not as floats.
	foldLongKeys  = []int64{0, -1, 1 << 53, 1<<53 + 1, 1<<53 + 2, math.MaxInt64, math.MinInt64, 42}
	foldFloatKeys = []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7FF8000000000123), 1.5, -2.25, math.Inf(1), math.SmallestNonzeroFloat64}
	foldLongVals  = []int64{0, 1, -1, 1<<53 + 1, -(1<<53 + 1), math.MaxInt64, math.MinInt64, math.MaxInt64 - 1}
	// Specials of the float input: non-finite values, a NaN with a
	// payload, signed zeros, denormals, and pairs that cancel
	// catastrophically. All finite ones are below 1e280, so that sums of
	// them stay far from the overflow threshold's last place.
	foldFloatVals = []float64{
		math.NaN(), math.Float64frombits(0x7FF8000000000123), math.Inf(1), math.Inf(-1),
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 3e-310,
		1e280, -1e280, 1e16, -1e16, 1, -1, 1e-300, 0.1,
	}
)

// genFoldCase draws a case from rng. classes, when not empty, picks each
// row's input classes instead of rng (the fuzzer's handle on the data).
func genFoldCase(rng *rand.Rand, n, nk, pattern, selMode int, overflow bool, classes []byte) *foldCase {
	c := &foldCase{nk: nk, overflow: overflow, rows: make([][]schema.Value, n)}
	class := func(i, mod int) int {
		if len(classes) > 0 {
			return int(classes[i%len(classes)]) % mod
		}
		return rng.Intn(mod)
	}
	for i := range c.rows {
		var k int
		switch pattern {
		case keysOneRun:
			k = 3
		case keysAlternating:
			k = i % 5
		case keysRandom:
			k = rng.Intn(64)
		default:
			k = i
		}
		k0 := int64(k)
		k1 := float64(k) / 4
		if pattern != keysAllDistinct {
			k0 = foldLongKeys[k%len(foldLongKeys)]
			k1 = foldFloatKeys[(k/3)%len(foldFloatKeys)]
		}
		v := rng.Int63n(2001) - 1000
		if class(2*i, 4) == 0 {
			v = foldLongVals[rng.Intn(len(foldLongVals))]
		}
		var w float64
		switch class(2*i+1, 8) {
		case 0, 1:
			w = foldFloatVals[rng.Intn(len(foldFloatVals))]
		case 2:
			// Multiples of 2^1020: sixteen of one sign overflow.
			if overflow {
				w = float64(rng.Intn(15)-7) * math.Ldexp(1, 1020)
				break
			}
			fallthrough
		default:
			w = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		}
		c.rows[i] = []schema.Value{
			{Kind: schema.Long, Int: k0},
			{Kind: schema.Double, Float: k1},
			{Kind: schema.Int, Int: int64(k % 7)},
			{Kind: schema.Long, Int: v},
			{Kind: schema.Double, Float: w},
		}
	}
	for i := range c.rows {
		switch selMode {
		case selFull:
			c.sel = append(c.sel, int32(i))
		case selSparse:
			if rng.Intn(7) == 0 {
				c.sel = append(c.sel, int32(i))
			}
		}
	}
	return c
}

// batchOfRows lays rows out as a batch of column vectors.
func batchOfRows(rows [][]schema.Value) *Batch {
	b := &Batch{}
	b.Reset(len(foldCols), len(rows))
	for ci, col := range foldCols {
		b.Cols[ci].Kind = col.Kind
		var iv []int64
		if col.Kind.Integral() {
			iv = b.IntCol(ci)
		}
		for r, row := range rows {
			b.Cols[ci].F[r] = row[ci].AsFloat()
			if iv != nil {
				iv[r] = row[ci].Int
			}
		}
	}
	return b
}

// oracleGroup is one group of the oracle: exact integer state, the float
// inputs kept for the order-free MIN/MAX rule, and the float sum in
// math/big with the documented saturation.
type oracleGroup struct {
	keys             []schema.Value
	count            int64
	vsum, vmin, vmax int64
	ws               []float64
	sum              *big.Float
	nan, pos, neg    bool
}

const oraclePrec = 2400

func (g *oracleGroup) addFloat(w float64) {
	switch {
	case w != w:
		g.nan = true
		return
	case math.IsInf(w, 1):
		g.pos = true
		return
	case math.IsInf(w, -1):
		g.neg = true
		return
	}
	g.sum.Add(g.sum, new(big.Float).SetPrec(oraclePrec).SetFloat64(w))
	if f, _ := g.sum.Float64(); math.IsInf(f, 0) {
		// A running sum out of range saturates and starts over.
		g.pos = g.pos || f > 0
		g.neg = g.neg || f < 0
		g.sum.SetFloat64(0)
	}
}

func (g *oracleGroup) floatSum() float64 {
	switch {
	case g.nan, g.pos && g.neg:
		return math.NaN()
	case g.pos:
		return math.Inf(1)
	case g.neg:
		return math.Inf(-1)
	}
	f, _ := g.sum.Float64()
	return f
}

// extreme is MIN or MAX by the rule math.Min/Max fold to: a lone value
// is itself; the function's infinity wins, then any NaN (canonical),
// then the ordered extreme with -0 below +0.
func (g *oracleGroup) extreme(isMax bool) float64 {
	if len(g.ws) == 1 {
		return g.ws[0]
	}
	sign := -1
	if isMax {
		sign = 1
	}
	anyNaN := false
	for _, w := range g.ws {
		if math.IsInf(w, sign) {
			return w
		}
		anyNaN = anyNaN || w != w
	}
	if anyNaN {
		return math.NaN()
	}
	best := g.ws[0]
	for _, w := range g.ws[1:] {
		switch {
		case isMax && (w > best || w == 0 && best == 0 && !math.Signbit(w)):
			best = w
		case !isMax && (w < best || w == 0 && best == 0 && math.Signbit(w)):
			best = w
		}
	}
	return best
}

// oracleRows computes the finalized result of folding c's selected rows.
func oracleRows(c *foldCase) [][]schema.Value {
	type key [3]uint64
	groups := map[key]*oracleGroup{}
	var order []*oracleGroup
	for _, r := range c.sel {
		row := c.rows[r]
		var k key
		keys := make([]schema.Value, c.nk)
		for ki := 0; ki < c.nk; ki++ {
			v := row[ki]
			if v.Kind.Integral() {
				k[ki] = uint64(v.Int)
			} else {
				if v.Float != v.Float {
					v.Float = math.NaN()
				} else if v.Float == 0 {
					v.Float = 0
				}
				k[ki] = math.Float64bits(v.Float)
			}
			keys[ki] = v
		}
		g := groups[k]
		if g == nil {
			g = &oracleGroup{keys: keys, vmin: math.MaxInt64, vmax: math.MinInt64}
			g.sum = new(big.Float).SetPrec(oraclePrec)
			g.sum.Neg(g.sum) // -0: the sum of no terms, and of -0 terms alone
			groups[k] = g
			order = append(order, g)
		}
		g.count++
		v := row[3].Int
		g.vsum += v
		if v < g.vmin {
			g.vmin = v
		}
		if v > g.vmax {
			g.vmax = v
		}
		g.ws = append(g.ws, row[4].Float)
		g.addFloat(row[4].Float)
	}
	sort.Slice(order, func(i, j int) bool {
		for k := range order[i].keys {
			if cmp := compareKey(order[i].keys[k], order[j].keys[k]); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	long := func(v int64) schema.Value { return schema.Value{Kind: schema.Long, Int: v} }
	dbl := func(f float64) schema.Value { return schema.Value{Kind: schema.Double, Float: f} }
	out := make([][]schema.Value, len(order))
	for i, g := range order {
		n := float64(g.count)
		out[i] = append(append([]schema.Value(nil), g.keys...),
			long(g.count), long(g.vsum), long(g.vmin), long(g.vmax), dbl(float64(g.vsum)/n),
			dbl(g.floatSum()), dbl(g.floatSum()/n), dbl(g.extreme(false)), dbl(g.extreme(true)))
	}
	return out
}

// checkFoldCase asserts every fold path against the oracle.
func checkFoldCase(t *testing.T, rng *rand.Rand, c *foldCase) {
	t.Helper()
	plan := foldPlan(t, c.nk)
	want := oracleRows(c)

	byRow := NewAggState(plan)
	for _, r := range c.sel {
		byRow.ObserveRow(c.rows[r])
	}
	sameRows(t, "ObserveRow vs oracle", want, byRow.Finalize())

	whole := NewAggState(plan)
	whole.ObserveBatch(batchOfRows(c.rows), c.sel)
	sameRows(t, "ObserveBatch vs oracle", want, whole.Finalize())

	// The same rows cut into blocks at arbitrary boundaries, each block
	// with its own selection; a second state takes alternate blocks so
	// the in-memory merge is covered too (skipped when running sums
	// overflow, where the result legitimately depends on the order).
	cut := NewAggState(plan)
	other := cut
	if !c.overflow {
		other = NewAggState(plan)
	}
	states := []*AggState{cut, other}
	si := 0
	for lo := 0; lo < len(c.rows); {
		hi := lo + 1 + rng.Intn(600)
		if hi > len(c.rows) {
			hi = len(c.rows)
		}
		var sel []int32
		for ; si < len(c.sel) && int(c.sel[si]) < hi; si++ {
			sel = append(sel, c.sel[si]-int32(lo))
		}
		states[rng.Intn(2)].ObserveBatch(batchOfRows(c.rows[lo:hi]), sel)
		lo = hi
	}
	if other != cut {
		cut.Merge(other)
	}
	sameRows(t, "blocks vs oracle", want, cut.Finalize())

	if c.overflow {
		return
	}
	// Wire path: rows dealt to legs at random, each leg folded by the
	// batch path, the encoded chunks merged shuffled.
	legSel := make([][]int32, 1+rng.Intn(4))
	for _, r := range c.sel {
		l := rng.Intn(len(legSel))
		legSel[l] = append(legSel[l], r)
	}
	batch := batchOfRows(c.rows)
	var chunks [][]byte
	for _, sel := range legSel {
		leg := NewAggState(plan)
		leg.ObserveBatch(batch, sel)
		chunks = append(chunks, leg.EncodeChunks(1+rng.Intn(300))...)
	}
	rng.Shuffle(len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })
	coord := NewAggState(plan)
	for _, chunk := range chunks {
		if err := coord.MergeEncoded(chunk); err != nil {
			t.Fatalf("MergeEncoded: %v", err)
		}
	}
	sameRows(t, "MergeEncoded vs oracle", want, coord.Finalize())
}

func TestAggFoldDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 511, 512, 4096} {
		for nk := 0; nk <= 3; nk++ {
			for pattern := 0; pattern < numKeyPatterns; pattern++ {
				for selMode := 0; selMode < numSelModes; selMode++ {
					for _, overflow := range []bool{false, true} {
						checkFoldCase(t, rng, genFoldCase(rng, n, nk, pattern, selMode, overflow, nil))
					}
				}
			}
		}
	}
}

func FuzzAggFoldDifferential(f *testing.F) {
	f.Add(int64(1), uint16(512), uint8(1), uint8(keysAlternating), uint8(selFull), false, []byte{})
	f.Add(int64(2), uint16(4096), uint8(2), uint8(keysRandom), uint8(selSparse), true, []byte{0, 2, 2, 2, 1})
	f.Add(int64(3), uint16(1), uint8(0), uint8(keysOneRun), uint8(selFull), false, []byte{0})
	f.Add(int64(4), uint16(700), uint8(3), uint8(keysAllDistinct), uint8(selFull), true, []byte{2})
	f.Fuzz(func(t *testing.T, seed int64, n uint16, nk, pattern, selMode uint8, overflow bool, classes []byte) {
		rng := rand.New(rand.NewSource(seed))
		c := genFoldCase(rng, int(n)%5000, int(nk)%4, int(pattern)%numKeyPatterns, int(selMode)%numSelModes, overflow, classes)
		checkFoldCase(t, rng, c)
	})
}

// Two encodings of one state — the rows of TestAggWireGolden — in the
// 'A'-frame payload layout. The first was produced by the grow-expansion
// implementation this one replaced (its SUM(W) of the first group has
// two terms, 2^-54 and 0.25); the second by this one (one term), and
// was checked to merge to the same rows on that older implementation.
const (
	aggWireOld = "020000000700000000000000000000000000f83f03000000000000000f000000000000000002000000000000000000903c000000000000d03ffdffffffffffffff0a00000000000000000000000000e8bf000000000000f03f0f000000000000000002000000000000000000903c000000000000d03ffeffffffffffffff010000000000f87f020000000000000006000000000020000201000000000000000000f0bf05000000000000000100000000002000000000000000f0bf000000000000f07f06000000000020000201000000000000000000f0bf"
	aggWireNew = "020000000700000000000000000000000000f83f03000000000000000f000000000000000001000000010000000000d03ffdffffffffffffff0a00000000000000000000000000e8bf000000000000f03f0f000000000000000001000000010000000000d03ffeffffffffffffff010000000000f87f020000000000000006000000000020000201000000000000000000f0bf05000000000000000100000000002000000000000000f0bf000000000000f07f06000000000020000201000000000000000000f0bf"
)

// TestAggWireGolden pins the 'A'-frame payload across the accumulator
// change: a chunk from an older node merges to the right rows, and this
// state encodes to the bytes an older node was checked to accept.
func TestAggWireGolden(t *testing.T) {
	plan := aggTestPlan(t)
	row := func(g int64, h float64, v int64, w float64) []schema.Value {
		return []schema.Value{
			{Kind: schema.Int, Int: g}, {Kind: schema.Double, Float: h},
			{Kind: schema.Long, Int: v}, {Kind: schema.Double, Float: w},
		}
	}
	s := NewAggState(plan)
	for _, r := range [][]schema.Value{
		row(7, 1.5, 10, 1), row(7, 1.5, -3, math.Ldexp(1, -54)), row(7, 1.5, 8, -0.75),
		row(-2, math.NaN(), 1<<53+1, math.Inf(1)), row(-2, math.NaN(), 5, -1),
	} {
		s.ObserveRow(r)
	}
	chunks := s.EncodeChunks(0)
	if len(chunks) != 1 {
		t.Fatalf("got %d chunks, want 1", len(chunks))
	}
	if got := hex.EncodeToString(chunks[0]); got != aggWireNew {
		t.Errorf("encoded chunk changed:\n got %s\nwant %s", got, aggWireNew)
	}
	want := s.Finalize()
	for name, golden := range map[string]string{"old": aggWireOld, "new": aggWireNew} {
		data, err := hex.DecodeString(golden)
		if err != nil {
			t.Fatal(err)
		}
		into := NewAggState(plan)
		if err := into.MergeEncoded(data); err != nil {
			t.Fatalf("%s chunk: %v", name, err)
		}
		sameRows(t, name+" chunk", want, into.Finalize())
	}
}
