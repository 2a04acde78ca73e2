package core

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"datavirt/internal/gen"
	"datavirt/internal/metadata"
)

// byteorderDescriptor declares the same tiny dataset twice-over: the
// test materializes it in both byte orders and checks the engine reads
// each correctly.
const byteorderDescriptor = `
[S]
T = int
A = float
B = double

[BoData]
DatasetDescription = S
DIR[0] = node0/bo

Dataset "BoData" {
  DATATYPE { S }
  DATAINDEX { T }
  BYTEORDER { %s }
  DATASPACE { LOOP T 0:9:1 { A B } }
  DATA { DIR[0]/data }
}
`

func TestByteOrderEndToEnd(t *testing.T) {
	for _, order := range []string{"LITTLE", "BIG"} {
		src := strings.Replace(byteorderDescriptor, "%s", order, 1)
		d, err := metadata.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", order, err)
		}
		if got := d.EffectiveByteOrder(d.Layout); got != order {
			t.Fatalf("EffectiveByteOrder = %s, want %s", got, order)
		}
		root := t.TempDir()
		value := func(attr string, at map[string]int64) float64 {
			switch attr {
			case "A":
				return float64(at["T"]) + 0.5
			case "B":
				return float64(at["T"]) * -2
			}
			return 0
		}
		if err := gen.Materialize(d, root, value); err != nil {
			t.Fatal(err)
		}

		// The raw bytes must actually differ by order: check A at T=1
		// (offset 12 = one 4+8-byte record in).
		raw, err := os.ReadFile(filepath.Join(root, "node0", "bo", "data"))
		if err != nil {
			t.Fatal(err)
		}
		bits := math.Float32bits(1.5)
		var got uint32
		if order == "BIG" {
			got = binary.BigEndian.Uint32(raw[12:])
		} else {
			got = binary.LittleEndian.Uint32(raw[12:])
		}
		if got != bits {
			t.Fatalf("%s: raw A(T=1) = %#x, want %#x", order, got, bits)
		}

		svc, err := Compile(d, NodeResolver(root))
		if err != nil {
			t.Fatal(err)
		}
		rows, err := queryAll(svc, "SELECT T, A, B FROM BoData WHERE T >= 3 AND T <= 5")
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 3 {
			t.Fatalf("%s: rows = %d", order, len(rows))
		}
		for i, r := range rows {
			tm := int64(3 + i)
			if r[0].AsInt() != tm || r[1].AsFloat() != float64(tm)+0.5 || r[2].AsFloat() != float64(tm)*-2 {
				t.Errorf("%s: row %d = %v", order, i, r)
			}
		}
	}
}

// TestByteOrderMismatchDetectable reads big-endian data with a
// little-endian descriptor and confirms values come out scrambled —
// the declaration genuinely drives decoding.
func TestByteOrderMismatchDetectable(t *testing.T) {
	bigSrc := strings.Replace(byteorderDescriptor, "%s", "BIG", 1)
	dBig, err := metadata.Parse(bigSrc)
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	value := func(attr string, at map[string]int64) float64 { return 1.5 }
	if err := gen.Materialize(dBig, root, value); err != nil {
		t.Fatal(err)
	}
	littleSrc := strings.Replace(byteorderDescriptor, "%s", "LITTLE", 1)
	dLittle, err := metadata.Parse(littleSrc)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := Compile(dLittle, NodeResolver(root))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := queryAll(svc, "SELECT A FROM BoData WHERE T = 0")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 1 && rows[0][0].AsFloat() == 1.5 {
		t.Error("little-endian read of big-endian data decoded correctly; byte order is being ignored")
	}
}

// TestByteOrderInheritance checks that children inherit the parent's
// order and the XML embedding round-trips it.
func TestByteOrderInheritance(t *testing.T) {
	src := `
[S]
T = int
A = float
[D]
DatasetDescription = S
DIR[0] = n0/d
Dataset "root" {
  DATATYPE { S }
  BYTEORDER { BIG }
  Dataset "leaf" {
    DATASPACE { LOOP T 0:3:1 { A } }
    DATA { DIR[0]/f }
  }
}
`
	d, err := metadata.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	leaf := d.Layout.Children[0]
	if got := d.EffectiveByteOrder(leaf); got != "BIG" {
		t.Errorf("inherited order = %s", got)
	}
	// Text round trip preserves the clause.
	if !strings.Contains(d.String(), "BYTEORDER { BIG }") {
		t.Errorf("String() lost BYTEORDER:\n%s", d.String())
	}
	d2, err := metadata.Parse(d.String())
	if err != nil {
		t.Fatal(err)
	}
	if d2.Layout.ByteOrder != "BIG" {
		t.Error("text round trip lost byte order")
	}
	// XML round trip.
	xmlSrc, err := metadata.ToXML(d)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(xmlSrc, `byteorder="BIG"`) {
		t.Errorf("XML lost byteorder:\n%s", xmlSrc)
	}
	d3, err := metadata.ParseXML(xmlSrc)
	if err != nil {
		t.Fatal(err)
	}
	if d3.Layout.ByteOrder != "BIG" {
		t.Error("XML round trip lost byte order")
	}
	// Bad order rejected.
	if _, err := metadata.Parse(strings.Replace(src, "{ BIG }", "{ MIDDLE }", 1)); err == nil {
		t.Error("BYTEORDER { MIDDLE } accepted")
	}
}
