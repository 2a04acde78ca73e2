// Package obs seeds the statssync golden tests: a QueryStats stand-in
// with two drifted fields (one counter, one duration) and two healthy
// ones.
package obs

import "time"

// QueryStats mirrors the real per-query stats struct.
type QueryStats struct {
	RowsRead int64         // merged and surfaced: healthy
	BadSkew  int64         // want "not merged in Add" "appears in neither Counters nor String"
	WaitTime time.Duration // merged and attributed: healthy
	BadTime  time.Duration // want "not merged in Add" "is not attributed in StageTime"
	LogTime  time.Duration // want "is not attributed in StageTime"

	// BlocksSkipped stands in for a data-skipping counter surfaced via
	// String rather than Counters: healthy.
	BlocksSkipped int64

	hidden int64 // unexported: out of scope
}

// Add merges another stats block into s.
func (s *QueryStats) Add(o *QueryStats) {
	s.RowsRead += o.RowsRead
	s.WaitTime += o.WaitTime
	s.LogTime += o.LogTime
	s.BlocksSkipped += o.BlocksSkipped
	s.hidden += o.hidden
}

// Counters exposes the integer counters.
func (s *QueryStats) Counters() map[string]int64 {
	return map[string]int64{"rows_read": s.RowsRead}
}

// String renders the stats for logs. Mentioning LogTime here does not
// excuse it from StageTime: prose is not queryable per stage. For the
// counter BlocksSkipped, though, String is a valid surface.
func (s *QueryStats) String() string {
	out := "stats " + s.LogTime.String()
	if s.BlocksSkipped > 0 {
		out += " skipping"
	}
	return out
}

// StageTime attributes time to pipeline stages.
func (s *QueryStats) StageTime() time.Duration { return s.WaitTime }
