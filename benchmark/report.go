package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// metricDef names one reported number. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics, measured with tracing off on every
// workload; BENCHMARK.json lists the same (a test holds them equal).
var endToEnd = []metricDef{
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
	{"gen_over_hand", "ratio", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// ungated ride along in the output file: tails the sample cannot hold
// to a bound on every workload, and numbers that must simply be zero.
var ungated = []metricDef{
	{Name: "lat_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "lat_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "tail_pct", Unit: "%", Better: "higher"},
	{Name: "samples", Unit: "count", Better: "higher"},
	{Name: "datagen_s", Unit: "s", Better: "lower"},
	{Name: "error_rate", Unit: "ratio", Better: "lower"},
}

// perLayer are the traced pass's metrics, layer = module name.
var perLayer = []metricDef{
	{Name: "metadata.open_ms", Unit: "ms", Better: "lower"},
	{Name: "sqlparser.parse_us", Unit: "us", Better: "lower"},
	{Name: "core.prepare_hit_us", Unit: "us", Better: "lower"},
	{Name: "core.prepare_miss_us", Unit: "us", Better: "lower"},
	{Name: "core.plan_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.cursor_overhead", Unit: "ratio", Better: "lower"},
	{Name: "afc.generate_us", Unit: "us", Better: "lower"},
	{Name: "afc.chunks_per_query", Unit: "count", Better: "lower"},
	{Name: "sparse.load_us", Unit: "us", Better: "lower"},
	{Name: "sparse.blocks_skipped", Unit: "count", Better: "higher"},
	{Name: "sparse.bytes_saved_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.cold_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "cache.warm_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.fs_bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "extractor.rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "extractor.mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "extractor.frac_of_raw", Unit: "ratio", Better: "higher"},
	{Name: "extractor.agg_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "query.filter_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "query.fold_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "query.merge_us_per_group", Unit: "us", Better: "lower"},
	{Name: "table.encode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "table.decode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "cluster.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.wire_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "cluster.shed", Unit: "count", Better: "lower"},
	{Name: "cluster.redispatches", Unit: "count", Better: "lower"},
	{Name: "handwritten.rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "raw.read_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "raw.memcpy_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// measured is one metric of one workload: the median over the run's
// rounds with its quartiles, and the inter-quartile spread as a share
// of the median, to be read beside the bound.
type measured struct {
	metricDef
	Value  float64   `json:"value"`
	Q1     float64   `json:"q1,omitempty"`
	Q3     float64   `json:"q3,omitempty"`
	Spread float64   `json:"spread,omitempty"`
	Rounds []float64 `json:"rounds,omitempty"`
}

func overRounds(def metricDef, rounds []float64) measured {
	s := sorted(rounds)
	m := measured{metricDef: def, Value: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), Rounds: rounds}
	if m.Value != 0 {
		m.Spread = math.Abs((m.Q3 - m.Q1) / m.Value)
	}
	return m
}

// workloadDoc is one workload's section of the output file.
type workloadDoc struct {
	Name         string     `json:"name"`
	Why          string     `json:"why"`
	Layout       string     `json:"layout"`
	Clients      int        `json:"clients"`
	DatasetRows  int64      `json:"dataset_rows"`
	DatasetBytes int64      `json:"dataset_bytes"`
	CacheBytes   int64      `json:"cache_bytes"`
	Attempted    int        `json:"attempted"`
	Failed       int        `json:"failed"`
	FirstError   string     `json:"first_error,omitempty"`
	Metrics      []measured `json:"metrics"`
	Ungated      []measured `json:"ungated,omitempty"`
	// SpanShares is each span name's self time as a share of the traced
	// ops' wall time, largest first (traced pass only).
	SpanShares []share `json:"span_shares,omitempty"`
}

// all lists the gated (or per-layer) metrics, then the ungated ones.
func (wd *workloadDoc) all() []measured {
	return append(append([]measured(nil), wd.Metrics...), wd.Ungated...)
}

func (wd *workloadDoc) metric(name string) (measured, bool) {
	for _, m := range wd.all() {
		if m.Name == name {
			return m, true
		}
	}
	return measured{}, false
}

// doc is the output file: numbers only, stamped with where they came
// from. It never claims a gain.
type doc struct {
	Commit     string         `json:"commit"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NProc      int            `json:"nproc"`
	CPU        string         `json:"cpu_model"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Rounds     int            `json:"rounds"`
	Quick      bool           `json:"quick"`
	Traced     bool           `json:"traced"`
	Workloads  []*workloadDoc `json:"workloads"`
	Claim      *string        `json:"claim"`
}

func newDoc(cfg *config) *doc {
	d := &doc{
		Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPU: cpuModel(), Seed: cfg.seed, Seconds: cfg.seconds, Rounds: cfg.rounds, Quick: cfg.quick, Traced: cfg.trace,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				d.Commit = s.Value
			}
		}
	}
	return d
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func (d *doc) workload(name string) *workloadDoc {
	for _, w := range d.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readDoc(path string) (*doc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d doc
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// print writes every metric by name with its unit, then — last, one
// line per workload — the result object the driver reads.
func (d *doc) print(w io.Writer) error {
	for _, wd := range d.Workloads {
		fmt.Fprintf(w, "%s: %d clients, %d rows, %.1f MB, %d ops attempted, %d failed\n",
			wd.Name, wd.Clients, wd.DatasetRows, float64(wd.DatasetBytes)/1e6, wd.Attempted, wd.Failed)
		for _, m := range wd.all() {
			fmt.Fprintf(w, "  %-28s %14.4f %-6s (%s is better", m.Name, m.Value, m.Unit, m.Better)
			if m.Bound > 0 {
				fmt.Fprintf(w, "; bound %.0f%%, spread over rounds %.1f%%", 100*m.Bound, 100*m.Spread)
			}
			fmt.Fprintln(w, ")")
		}
		for _, s := range wd.SpanShares {
			fmt.Fprintf(w, "  self time %-18s %6.1f%% of op time\n", s.Span, 100*s.Share)
		}
	}
	for _, wd := range d.Workloads {
		line := resultLine{Correct: wd.Failed == 0 && wd.FirstError == "", Attempted: wd.Attempted, Failed: wd.Failed,
			Metrics: map[string]resultValue{}}
		for _, m := range wd.Metrics {
			line.Metrics[m.Name] = resultValue{m.Value, m.Unit}
		}
		b, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", b)
	}
	return nil
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
