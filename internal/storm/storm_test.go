package storm

import (
	"testing"
	"testing/quick"

	"datavirt/internal/schema"
	"datavirt/internal/table"
)

func rowOf(vals ...float64) table.Row {
	r := make(table.Row, len(vals))
	for i, v := range vals {
		r[i] = schema.DoubleValue(v)
	}
	return r
}

func lookup2(name string) (int, bool) {
	switch name {
	case "A":
		return 0, true
	case "B":
		return 1, true
	}
	return 0, false
}

func TestRoundRobin(t *testing.T) {
	p, err := NewPartitioner(PartitionSpec{Scheme: RoundRobin, NumDests: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := []int{}
	for i := 0; i < 7; i++ {
		got = append(got, p.Dest(rowOf(1)))
	}
	want := []int{0, 1, 2, 0, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round robin = %v", got)
		}
	}
}

func TestHashPartitioner(t *testing.T) {
	p, err := NewPartitioner(PartitionSpec{Scheme: HashAttr, NumDests: 4, Attr: "B"}, lookup2)
	if err != nil {
		t.Fatal(err)
	}
	// Same value → same destination.
	if p.Dest(rowOf(1, 7)) != p.Dest(rowOf(2, 7)) {
		t.Error("hash partitioner not value-stable")
	}
	// Distribution over many integer values touches all destinations.
	seen := map[int]int{}
	for v := 0; v < 100; v++ {
		d := p.Dest(rowOf(0, float64(v)))
		if d < 0 || d >= 4 {
			t.Fatalf("dest out of range: %d", d)
		}
		seen[d]++
	}
	if len(seen) != 4 {
		t.Errorf("hash used only %d of 4 destinations: %v", len(seen), seen)
	}
}

func TestRangePartitioner(t *testing.T) {
	p, err := NewPartitioner(PartitionSpec{
		Scheme: RangeAttr, NumDests: 3, Attr: "A", Bounds: []float64{10, 20},
	}, lookup2)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[float64]int{-5: 0, 9.9: 0, 10: 1, 19.9: 1, 20: 2, 100: 2}
	for v, want := range cases {
		if got := p.Dest(rowOf(v, 0)); got != want {
			t.Errorf("range dest(%g) = %d, want %d", v, got, want)
		}
	}
}

func TestPartitionerErrors(t *testing.T) {
	cases := []PartitionSpec{
		{Scheme: RoundRobin, NumDests: 0},
		{Scheme: HashAttr, NumDests: 2, Attr: "NOPE"},
		{Scheme: RangeAttr, NumDests: 3, Attr: "A", Bounds: []float64{1}},
		{Scheme: RangeAttr, NumDests: 3, Attr: "A", Bounds: []float64{5, 1}},
		{Scheme: Scheme(99), NumDests: 1},
	}
	for i, spec := range cases {
		if _, err := NewPartitioner(spec, lookup2); err == nil {
			t.Errorf("spec %d accepted", i)
		}
	}
}

func TestSchemeString(t *testing.T) {
	if RoundRobin.String() != "round-robin" || HashAttr.String() != "hash" ||
		RangeAttr.String() != "range" || Scheme(9).String() != "unknown" {
		t.Error("Scheme.String wrong")
	}
}

// Property: for any scheme, routing every row to the sink of its
// destination — what the coordinator's data mover does — gives a
// disjoint cover of the input rows.
func TestPartitionsAreCoverQuick(t *testing.T) {
	f := func(vals []float64, pick uint8) bool {
		specs := []PartitionSpec{
			{Scheme: RoundRobin, NumDests: 3},
			{Scheme: HashAttr, NumDests: 3, Attr: "A"},
			{Scheme: RangeAttr, NumDests: 3, Attr: "A", Bounds: []float64{-1, 1}},
		}
		spec := specs[int(pick)%len(specs)]
		p, err := NewPartitioner(spec, lookup2)
		if err != nil {
			return false
		}
		sinks := []*SliceSink{{}, {}, {}}
		for i, v := range vals {
			d := p.Dest(rowOf(v, float64(i)))
			if d < 0 || d >= len(sinks) {
				return false
			}
			if err := sinks[d].Send(rowOf(v, float64(i))); err != nil {
				return false
			}
		}
		seen := map[float64]bool{}
		for _, s := range sinks {
			for _, r := range s.Rows {
				if seen[r[1].AsFloat()] {
					return false
				}
				seen[r[1].AsFloat()] = true
			}
		}
		return len(seen) == len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFuncSink(t *testing.T) {
	var got []float64
	var s Sink = FuncSink(func(r table.Row) error { got = append(got, r[0].AsFloat()); return nil })
	if err := s.Send(rowOf(7)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil || len(got) != 1 || got[0] != 7 {
		t.Errorf("FuncSink: got %v, close err %v", got, err)
	}
}
