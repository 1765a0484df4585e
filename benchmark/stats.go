package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// percentile returns the p-th percentile (0..100) of v by linear
// interpolation between closest ranks. v need not be sorted; it is not
// modified. An empty v yields 0.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return percentile(v, 50) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanRec is one recorded span: a call the benchmark made into a layer.
// Start and End are offsets from the tracer's origin; Parent is the id
// (index) of the span that caused it, -1 at the root; spans of one rep or
// job share Rep.
type spanRec struct {
	Name       string
	Start, End time.Duration
	Parent     int
	Rep        int
	Lane       int
}

// tracer keeps spans in memory until the benchmark ends. A disabled
// tracer (the untraced pass) still times, so callers read durations from
// span.end either way, but it records nothing.
type tracer struct {
	on bool
	t0 time.Time

	mu    sync.Mutex
	spans []spanRec
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// span is an open span. The zero parent (nil) marks a root.
type span struct {
	tr    *tracer
	id    int
	start time.Time
}

// start opens a span under parent (nil for a root). lane separates
// concurrent callers in the Chrome trace view.
func (t *tracer) start(name string, parent *span, rep, lane int) *span {
	s := &span{tr: t, id: -1, start: time.Now()}
	if !t.on {
		return s
	}
	p := -1
	if parent != nil {
		p = parent.id
	}
	t.mu.Lock()
	s.id = len(t.spans)
	t.spans = append(t.spans, spanRec{Name: name, Start: s.start.Sub(t.t0), Parent: p, Rep: rep, Lane: lane})
	t.mu.Unlock()
	return s
}

// end closes the span and returns its duration.
func (s *span) end() time.Duration {
	now := time.Now()
	if s.id >= 0 {
		s.tr.mu.Lock()
		s.tr.spans[s.id].End = now.Sub(s.tr.t0)
		s.tr.mu.Unlock()
	}
	return now.Sub(s.start)
}

// chromeEvent is one "complete" event of the Chrome trace-event format
// (chrome://tracing, Perfetto).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// chromeTrace converts the recorded spans.
func (t *tracer) chromeTrace() map[string]any {
	t.mu.Lock()
	defer t.mu.Unlock()
	evs := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		evs[i] = chromeEvent{
			Name: s.Name, Ph: "X",
			TS: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.Lane,
			Args: map[string]int{"id": i, "parent": s.Parent, "rep": s.Rep},
		}
	}
	return map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}
}
