package main

import (
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Name: "Run", Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Name: "setup", Start: 0, End: 30 * ms},
		{ID: 2, Parent: 0, Name: "kernel", Start: 30 * ms, End: 100 * ms},
		{ID: 3, Parent: 2, Name: "unit", Start: 30 * ms, End: 60 * ms},
		{ID: 4, Parent: 2, Name: "unit", Start: 60 * ms, End: 90 * ms},
		// Concurrent children overlap: their union counts once, and a
		// child running past its parent is clipped.
		{ID: 5, Parent: -1, Name: "phase", Start: 0, End: 50 * ms},
		{ID: 6, Parent: 5, Name: "request", Tag: "hit", Start: 5 * ms, End: 20 * ms},
		{ID: 7, Parent: 5, Name: "request", Tag: "hit", Start: 10 * ms, End: 25 * ms},
		{ID: 8, Parent: 5, Name: "request", Tag: "miss", Start: 40 * ms, End: 70 * ms},
	}
	want := []time.Duration{0, 30 * ms, 10 * ms, 30 * ms, 30 * ms, 20 * ms, 15 * ms, 15 * ms, 30 * ms}
	got := selfTime(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].Name, got[i], want[i])
		}
	}
	self, count := selfByName(spans)
	if self["unit"] != 60*ms || count["unit"] != 2 {
		t.Errorf("unit: self %v over %d spans, want 60ms over 2", self["unit"], count["unit"])
	}
	if self["request.hit"] != 30*ms || count["request.miss"] != 1 {
		t.Errorf("request tags: hit self %v, miss count %d", self["request.hit"], count["request.miss"])
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.begin("x", "", -1); id != -1 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
	tr.finish(-1)
	if tr.snapshot() != nil || tr.now() != 0 {
		t.Fatal("nil tracer recorded something")
	}
}
