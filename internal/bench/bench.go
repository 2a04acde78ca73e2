// Package bench is the experiment harness: for every table and figure
// of the paper's evaluation (§5) it regenerates the corresponding
// measurement at laptop scale and prints the same rows/series the paper
// reports. EXPERIMENTS.md records the mapping and the paper-vs-measured
// comparison; DESIGN.md §4 is the experiment index.
package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"datavirt/internal/core"
	"datavirt/internal/obs"
	"datavirt/internal/table"
)

// Config controls dataset sizes and workspace placement.
type Config struct {
	// WorkDir holds generated datasets and rowstore files. Datasets are
	// reused across runs when already present.
	WorkDir string
	// Scale multiplies default dataset sizes (1.0 = the documented
	// defaults; EXPERIMENTS.md was produced at 1.0).
	Scale float64
	// Quick shrinks every dataset to smoke-test size (used by unit
	// tests and -short benchmarks).
	Quick bool
	// Trials is the number of timed repetitions; the minimum is
	// reported (default 2).
	Trials int
	// Verbose echoes progress to stderr.
	Verbose bool
}

func (c Config) trials() int {
	if c.Trials > 0 {
		return c.Trials
	}
	return 2
}

func (c Config) scale() float64 {
	if c.Scale <= 0 {
		return 1
	}
	return c.Scale
}

func (c Config) logf(format string, args ...any) {
	if c.Verbose {
		fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	}
}

// scaleInt scales n, keeping at least min and divisibility by div.
func (c Config) scaleInt(n, min, div int) int {
	v := int(float64(n) * c.scale())
	if c.Quick {
		v = n / 16
	}
	if v < min {
		v = min
	}
	if div > 1 {
		v = (v + div - 1) / div * div
	}
	return v
}

// Table is one experiment's output in paper-table form.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row.
func (t *Table) AddRow(cols ...string) { t.Rows = append(t.Rows, cols) }

// Format renders an aligned text table.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is one runnable reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) (*Table, error)
}

// Experiments returns the registry, in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig6", "PostgreSQL-like rowstore vs datavirt on Titan queries (Figures 6+7)", RunFig6},
		{"fig9a", "Query 1 (full scan) across file layouts L0/I–VI (Figure 9a)", RunFig9a},
		{"fig9b", "Queries 2–5 across file layouts L0/I–VI (Figure 9b)", RunFig9b},
		{"fig10", "Scalability with data-source nodes, hand vs generated (Figure 10)", RunFig10},
		{"fig11a", "Varying query size on Ipars, hand vs generated (Figure 11a)", RunFig11a},
		{"fig11b", "Varying query size on Titan, hand vs generated (Figure 11b)", RunFig11b},
		{"ablation-index", "Ablation: chunk-index pruning on vs off (ours)", RunAblationIndex},
		{"ablation-chunk", "Ablation: chunked vs monolithic Titan storage (ours)", RunAblationChunks},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment ids.
func IDs() []string {
	var out []string
	for _, e := range Experiments() {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}

// timeBest runs f cfg.trials() times and returns the fastest duration.
func timeBest(cfg Config, f func() error) (time.Duration, error) {
	best := time.Duration(-1)
	for i := 0; i < cfg.trials(); i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		d := time.Since(start)
		if best < 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// prepare plans sql on svc; the experiments run uncancellable.
func prepare(svc *core.Service, sql string) (*core.Prepared, error) {
	return svc.PrepareContext(context.Background(), sql)
}

// countRows runs a prepared query and counts the rows it emits.
func countRows(prep *core.Prepared, opt core.Options) (int64, obs.QueryStats, error) {
	var n int64
	stats, err := prep.RunContext(context.Background(), opt, func(table.Row) error { n++; return nil })
	return n, stats, err
}

// ms renders a duration in milliseconds.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}

// ensureDir creates a workspace subdirectory.
func ensureDir(cfg Config, parts ...string) (string, error) {
	dir := filepath.Join(append([]string{cfg.WorkDir}, parts...)...)
	return dir, os.MkdirAll(dir, 0o755)
}

// haveMarker reports whether dir holds a name.ok dataset-reuse marker
// recording spec, the generator input. A marker for another spec (a
// workdir first used at another -scale) is removed, so the data is
// regenerated rather than reused at the wrong size, and a regeneration
// that fails halfway is never mistaken for the old data.
func haveMarker(dir, name string, spec any) bool {
	path := filepath.Join(dir, name+".ok")
	got, err := os.ReadFile(path)
	if err == nil && string(got) == fmt.Sprintf("%+v\n", spec) {
		return true
	}
	os.Remove(path)
	return false
}

// setMarker records that dir holds name's data generated from spec.
func setMarker(dir, name string, spec any) error {
	return os.WriteFile(filepath.Join(dir, name+".ok"), []byte(fmt.Sprintf("%+v\n", spec)), 0o644)
}
