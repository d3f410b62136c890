package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// A span covers one call into one layer: its name, start, end, the span
// that caused it and the request it belongs to. Spans are recorded by the
// benchmark around its calls into the program's public functions; they
// stay in memory and are written out when the run ends.
type span struct {
	Req    string `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 4096)} }

// begin opens a span; parent is -1 for a request's root span.
func (t *tracer) begin(req string, parent int, name string) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Req: req, ID: id, Parent: parent, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// call records f as one span and returns its duration.
func (t *tracer) call(req string, parent int, name string, f func()) time.Duration {
	id := t.begin(req, parent, name)
	f()
	t.end(id)
	t.mu.Lock()
	d := time.Duration(t.spans[id].End - t.spans[id].Start)
	t.mu.Unlock()
	return d
}

// selfTimes returns every span's self time — its duration minus the part
// of it its children cover — grouped by span name.
func (t *tracer) selfTimes() map[string][]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][]time.Duration)
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, hi := int64(0), s.Start
		for _, k := range kids {
			lo := max(k.Start, hi)
			if k.End > lo {
				covered += k.End - lo
				hi = k.End
			}
		}
		out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start-covered))
	}
	return out
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
