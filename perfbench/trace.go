package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. Times are offsets from the tracer's origin;
// Parent is the causing span's ID, or -1 for a root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Tag    string        `json:"tag,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// now returns the current offset from the origin (0 on a nil tracer).
func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.origin)
}

// add records a finished span and returns its ID (-1 on a nil tracer).
func (t *tracer) add(name, tag string, parent int, start, end time.Duration) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Tag: tag, Start: start, End: end})
	return id
}

// begin opens a span now and returns its ID; finish closes it.
func (t *tracer) begin(name, tag string, parent int) int {
	now := t.now()
	return t.add(name, tag, parent, now, now)
}

// finish sets the end of span id to now.
func (t *tracer) finish(id int) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON at path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTime returns each span's self time: its duration minus the part of
// its interval that the union of its children's intervals covers.
// Children that overlap each other (concurrent work) are counted once.
func selfTime(spans []span) []time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered measures the union of the intervals of cs clipped to [lo, hi].
func covered(lo, hi time.Duration, cs []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(cs))
	for _, c := range cs {
		a, b := max(c.Start, lo), min(c.End, hi)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfByName sums self time per span key (the name, or name.tag when a
// tag is set) and counts the spans of each key.
func selfByName(spans []span) (self map[string]time.Duration, count map[string]int) {
	st := selfTime(spans)
	self, count = map[string]time.Duration{}, map[string]int{}
	for i, s := range spans {
		k := s.Name
		if s.Tag != "" {
			k += "." + s.Tag
		}
		self[k] += st[i]
		count[k]++
	}
	return self, count
}
