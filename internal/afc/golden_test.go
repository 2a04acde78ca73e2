package afc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"datavirt/internal/gen"
	"datavirt/internal/index"
	"datavirt/internal/metadata"
	"datavirt/internal/query"
	"datavirt/internal/sqlparser"
)

// planGolden holds, per (descriptor, query), the first 8 bytes of the
// SHA-256 of fmt.Sprintf("%#v", afcs): every field of every AFC —
// segment order, offsets, strides, attribute runs, implicit values and
// kinds, row dimensions, and nil versus empty slices. The digests were
// recorded from the per-chunk planner this package used before the
// per-group hoisting, so any change to what Generate emits shows here,
// not only changes to the rows the chunks decode to (TestAFCEquivalence).
// The 22 digests of plans with row dimensions were re-recorded when
// RowDim lost its always-zero Div and Count fields; they equal the
// earlier planner's digests with ", Div:0, Count:0" cut from the text.
var planGolden = map[string]string{
	"bigendian/0":     "74ba1c0e56a5a611",
	"bigendian/1":     "e2888c920f1fd4d0",
	"bigendian/2":     "75b94cf614912862",
	"ipars-CLUSTER/0": "103437488121afa3",
	"ipars-CLUSTER/1": "b33a853e7afd71b1",
	"ipars-CLUSTER/2": "32ab0e4ad77b5110",
	"ipars-CLUSTER/3": "df28fdb02d855171",
	"ipars-CLUSTER/4": "b4e725c8d0658a9a",
	"ipars-CLUSTER/5": "2afc53d9006def4d",
	"ipars-CLUSTER/6": "b02bf03a75f18ff3",
	"ipars-I/0":       "a41e09bdc1a2fc8d",
	"ipars-I/1":       "75538247f2869bd3",
	"ipars-I/2":       "469c519bec9d222c",
	"ipars-I/3":       "38697f75585e829a",
	"ipars-I/4":       "cf9aed3e2e73ccfb",
	"ipars-I/5":       "1192e1d47abada8f",
	"ipars-I/6":       "b02bf03a75f18ff3",
	"ipars-II/0":      "e5377453651a3f6c",
	"ipars-II/1":      "b3787a6eda669df5",
	"ipars-II/2":      "683afced34202ed5",
	"ipars-II/3":      "c2cc47bb369399e0",
	"ipars-II/4":      "4654f882372dd917",
	"ipars-II/5":      "1192e1d47abada8f",
	"ipars-II/6":      "b02bf03a75f18ff3",
	"ipars-III/0":     "3c004b64a931e529",
	"ipars-III/1":     "298931fe27a6fe76",
	"ipars-III/2":     "8544c594580aa897",
	"ipars-III/3":     "0a4794abe8735d41",
	"ipars-III/4":     "90cb8c5d3c7e1714",
	"ipars-III/5":     "1192e1d47abada8f",
	"ipars-III/6":     "b02bf03a75f18ff3",
	"ipars-IV/0":      "5383f7036fb40f0b",
	"ipars-IV/1":      "d45ceb7ffd22eff5",
	"ipars-IV/2":      "4a57a4a5704be79d",
	"ipars-IV/3":      "22944614807e1ca5",
	"ipars-IV/4":      "b5d9cbc1bfc33c26",
	"ipars-IV/5":      "1192e1d47abada8f",
	"ipars-IV/6":      "b02bf03a75f18ff3",
	"ipars-L0/0":      "1611ee81dca874f4",
	"ipars-L0/1":      "042880ca752761d7",
	"ipars-L0/2":      "b524dadad81d1c0f",
	"ipars-L0/3":      "f63b68c6db2fdecd",
	"ipars-L0/4":      "56d386dec4f075ce",
	"ipars-L0/5":      "1192e1d47abada8f",
	"ipars-L0/6":      "b02bf03a75f18ff3",
	"ipars-V/0":       "ed6406b4490cb61f",
	"ipars-V/1":       "2c6a36fc32df50b1",
	"ipars-V/2":       "591147248e99608f",
	"ipars-V/3":       "cc793b65acb3c753",
	"ipars-V/4":       "e7c55acb9af40a50",
	"ipars-V/5":       "1192e1d47abada8f",
	"ipars-V/6":       "b02bf03a75f18ff3",
	"ipars-VI/0":      "8c1a84d894f24768",
	"ipars-VI/1":      "7015dc240dac8d9b",
	"ipars-VI/2":      "9a430dfd89de5888",
	"ipars-VI/3":      "89b0dde3c2d10816",
	"ipars-VI/4":      "d55c0fb38bf6d4d1",
	"ipars-VI/5":      "1192e1d47abada8f",
	"ipars-VI/6":      "b02bf03a75f18ff3",
	"pinned/0":        "559cb1eb988cb098",
	"pinned/1":        "440905e74e6cae88",
	"pinned/2":        "ce970c4d37c0a93c",
	"random1/0":       "406a10bc49b6cf6d",
	"random1/1":       "e056d6ef3ddba229",
	"random2/0":       "4b39433070341dbc",
	"random2/1":       "9d99256d0a6314e9",
	"random3/0":       "4d7a80b7c691508e",
	"random3/1":       "26b8396342d333e1",
	"random4/0":       "4f81d432c48bfd20",
	"random4/1":       "2938cbddf962b638",
	"random5/0":       "b2f91792e9913a5c",
	"random5/1":       "b67d6d14061abea5",
	"random6/0":       "e2841993a3b5da9f",
	"random6/1":       "393f78349af949a9",
	"random7/0":       "198592796bd741bc",
	"random7/1":       "8c339d7646db0e71",
	"random8/0":       "4fe951b8aa297acb",
	"random8/1":       "d12547de8821422b",
	"titan/0":         "c08c69d6b73696b0",
	"titan/1":         "f4df5d5119053eb7",
	"titan/2":         "45a3782dedc5f0c1",
}

// goldenQueries covers full scans, point and window reads, projections
// that split segments, disjoint ranges, implicit-only columns and an
// unsatisfiable predicate.
var goldenQueries = []string{
	"SELECT * FROM IparsData",
	"SELECT X, SOIL FROM IparsData WHERE REL = 1 AND TIME >= 2 AND TIME <= 3",
	"SELECT X, Y, SOIL, POIL FROM IparsData WHERE TIME = 2 AND REL = 0",
	"SELECT TIME, SOIL, POIL, OILVX, SGAS FROM IparsData WHERE SGAS > 0.3",
	"SELECT SGAS, Z FROM IparsData WHERE TIME = 1 OR TIME = 3",
	"SELECT REL, TIME FROM IparsData WHERE REL <> 1",
	"SELECT SOIL FROM IparsData WHERE TIME > 5",
}

// goldenCase is one descriptor and the queries planned against it.
type goldenCase struct {
	name    string
	plan    *Plan
	queries []string
	loader  IndexLoader
}

func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	compile := func(src string) *Plan {
		d, err := metadata.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Compile(d)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	var cases []goldenCase
	spec := gen.IparsSpec{Realizations: 2, TimeSteps: 3, GridPoints: 8, Partitions: 2, Attrs: 9}
	for _, id := range gen.IparsLayouts() {
		src, err := gen.IparsDescriptor(spec, id)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, goldenCase{name: "ipars-" + id, plan: compile(src), queries: goldenQueries})
	}

	root := t.TempDir()
	descPath, err := gen.WriteTitan(root, gen.TitanSpec{
		Points: 400, XMax: 40, YMax: 40, ZMax: 40, TilesX: 2, TilesY: 2, TilesZ: 2, Nodes: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := metadata.ParseFile(descPath)
	if err != nil {
		t.Fatal(err)
	}
	titan, err := Compile(d)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, goldenCase{
		name: "titan",
		plan: titan,
		queries: []string{
			"SELECT * FROM TitanData",
			"SELECT X, S2 FROM TitanData WHERE X < 15 AND Y >= 10",
			"SELECT S1, S5 FROM TitanData WHERE Z > 30",
		},
		loader: func(fi metadata.FileInstance) (*index.ChunkIndex, error) {
			return index.ReadFile(filepath.Join(gen.NodePath(root, fi.Node()), filepath.FromSlash(fi.Path())))
		},
	})

	cases = append(cases, goldenCase{
		name: "pinned",
		plan: compile(pinnedDescriptor),
		queries: []string{
			"SELECT * FROM PinData",
			"SELECT B, I FROM PinData WHERE I >= 2 AND J = 1",
			"SELECT A FROM PinData WHERE I = 4",
		},
	})
	cases = append(cases, goldenCase{
		name: "bigendian",
		plan: compile(bigEndianDescriptor),
		queries: []string{
			"SELECT * FROM BeData",
			"SELECT B FROM BeData WHERE T >= 3 AND R = 1",
			"SELECT R, A FROM BeData WHERE T = 0",
		},
	})
	// Random loop nests, element orders, partitionings and per-value
	// file bindings from the equivalence property test's generator.
	for seed := int64(1); seed <= 8; seed++ {
		src, _, _, _ := randomDescriptor(rand.New(rand.NewSource(seed)))
		cases = append(cases, goldenCase{
			name: fmt.Sprintf("random%d", seed),
			plan: compile(src),
			queries: []string{
				"SELECT * FROM RandData",
				"SELECT A, J FROM RandData WHERE I >= 1 AND I <= 2 AND J <> 1",
			},
		})
	}
	return cases
}

// bigEndianDescriptor stores two attributes per record in BIG byte
// order, one file per R binding.
const bigEndianDescriptor = `
[S]
R = int
T = int
A = float
B = double

[BeData]
DatasetDescription = S
DIR[0] = node0/be

Dataset "BeData" {
  DATATYPE { S }
  DATAINDEX { R T }
  BYTEORDER { BIG }
  DATASPACE { LOOP T 0:5:1 { A B } }
  DATA { DIR[0]/data$R R = 0:2:1 }
}
`

// goldenNeeded lists, in schema order, the attributes a SELECT list
// and WHERE clause read — what core hands Generate.
func goldenNeeded(p *Plan, q *sqlparser.Query) []string {
	set := map[string]bool{}
	for _, c := range q.Columns {
		set[c] = true
	}
	for _, c := range sqlparser.ExprColumns(q.Where) {
		set[c] = true
	}
	var out []string
	for _, a := range p.Schema.Attrs() {
		if q.Star || set[a.Name] {
			out = append(out, a.Name)
		}
	}
	return out
}

// TestPlanIdentityGolden asserts that Generate emits exactly the AFC
// lists recorded in planGolden for gen's layouts I–VI, L0 and CLUSTER,
// the Titan chunked leaf, the pinned-dimension descriptor, a
// BYTEORDER { BIG } descriptor and eight random descriptors.
func TestPlanIdentityGolden(t *testing.T) {
	got := map[string]string{}
	for _, c := range goldenCases(t) {
		for i, sql := range c.queries {
			q := sqlparser.MustParse(sql)
			afcs, err := c.plan.Generate(query.ExtractRanges(q.Where), goldenNeeded(c.plan, q), c.loader)
			if err != nil {
				t.Fatalf("%s: %s: %v", c.name, sql, err)
			}
			sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", afcs)))
			got[fmt.Sprintf("%s/%d", c.name, i)] = hex.EncodeToString(sum[:8])
		}
	}
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var bad []string
	for _, k := range keys {
		if planGolden[k] != got[k] {
			bad = append(bad, k)
		}
	}
	if len(bad) > 0 || len(planGolden) != len(got) {
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "\t%q: %q,\n", k, got[k])
		}
		t.Errorf("plans differ from the golden digests at %v (%d golden, %d planned); current digests:\n%s",
			bad, len(planGolden), len(got), b.String())
	}
}
