package main

import (
	"testing"
	"time"
)

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	sp := func(id, parent int, name string, a, b time.Duration) span {
		return span{ID: id, Parent: parent, Name: name, Start: a * time.Millisecond, End: b * time.Millisecond}
	}
	spans := []span{
		sp(1, 0, "request", 0, 100),
		sp(2, 1, "a", 10, 40), // overlaps b
		sp(3, 1, "b", 30, 60), // covered with a: 10..60
		sp(4, 2, "a.inner", 15, 20),
		sp(5, 1, "late", 90, 120), // runs past its parent: only 90..100 counts
	}
	got := selfTime(spans)
	want := map[string]time.Duration{
		"request": 40 * time.Millisecond, // 100 - (10..60) - (90..100)
		"a":       25 * time.Millisecond,
		"b":       30 * time.Millisecond,
		"a.inner": 5 * time.Millisecond,
		"late":    30 * time.Millisecond,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
}

func TestSelfTimeSumsRepeatedNames(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 10},
		{ID: 2, Name: "run", Start: 20, End: 25},
	}
	if got := selfTime(spans)["run"]; got != 15 {
		t.Errorf("self time = %v, want 15ns", got)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 1)
	tr.end(id)
	if d := tr.timed("y", id, 1, func() {}); d < 0 {
		t.Errorf("timed returned %v", d)
	}
}
