package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's side
// of the call. Parent is the id of the span that caused it (0 for a
// root); spans of one run share Run.
type Span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Run    string  `json:"run"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	// Attr moves part of the span's self time to other layers: seconds of
	// work the call performed internally, measured by replaying the same
	// inputs through that layer's own public function (a trace-driven
	// Session.Run spends Attr["trace"] seconds synthesizing its traces).
	Attr map[string]float64 `json:"attr,omitempty"`
	// OffTable marks calls the where-the-time-goes table leaves out, with
	// their descendants: calls made only to measure a layer, and opaque
	// calls whose time the table counts through other spans.
	OffTable bool `json:"off_table,omitempty"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer is the
// untraced mode: every method is a no-op and reads no clock.
type Tracer struct {
	mu    sync.Mutex
	run   string
	t0    time.Time
	spans []Span
}

// NewTracer starts a trace whose spans carry the given run id.
func NewTracer(run string) *Tracer {
	return &Tracer{run: run, t0: time.Now()}
}

// Start opens a span and returns its id (0 on a nil tracer).
func (t *Tracer) Start(parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Run: t.run, Layer: layer, Name: name, Start: now, End: now})
	return id
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// OffTable leaves span id and its descendants out of the table.
func (t *Tracer) OffTable(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].OffTable = true
	t.mu.Unlock()
}

// Attribute moves secs of span id's self time to layer.
func (t *Tracer) Attribute(id int, layer string, secs float64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	s := &t.spans[id-1]
	if s.Attr == nil {
		s.Attr = map[string]float64{}
	}
	s.Attr[layer] += secs
	t.mu.Unlock()
}

// Spans returns a copy of every span recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Write stores the spans as JSON lines.
func (t *Tracer) Write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// LayerTime sums the named layer's span durations (its busy time).
func LayerTime(spans []Span, layer, name string) (secs float64, calls int) {
	for _, s := range spans {
		if s.Layer == layer && (name == "" || s.Name == name) {
			secs += s.End - s.Start
			calls++
		}
	}
	return secs, calls
}

// SelfTimes returns each layer's self time: span durations minus the part
// of each span its child spans cover, with Attr seconds moved to their
// layers. OffTable spans and their descendants are left out.
func SelfTimes(spans []Span) map[string]float64 {
	byID := make(map[int]*Span, len(spans))
	children := make(map[int][]*Span)
	for i := range spans {
		s := &spans[i]
		byID[s.ID] = s
		children[s.Parent] = append(children[s.Parent], s)
	}
	off := func(s *Span) bool {
		for ; s != nil; s = byID[s.Parent] {
			if s.OffTable {
				return true
			}
		}
		return false
	}
	out := map[string]float64{}
	for i := range spans {
		s := &spans[i]
		if off(s) {
			continue
		}
		self := (s.End - s.Start) - covered(s, children[s.ID])
		for layer, secs := range s.Attr {
			out[layer] += secs
			self -= secs
		}
		out[s.Layer] += self
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent *Span, kids []*Span) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, hi float64
	first := true
	for _, v := range ivs {
		switch {
		case first || v.a > hi:
			total += v.b - v.a
			hi = v.b
			first = false
		case v.b > hi:
			total += v.b - hi
			hi = v.b
		}
	}
	return total
}
