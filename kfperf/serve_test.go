package main

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/serve"
)

// One stalled request must inflate the latency of every request queued
// behind it: latency runs from the due time, not from the send.
func TestDriveChargesStallToQueuedRequests(t *testing.T) {
	const stall = 150 * time.Millisecond
	arr := []arrival{{due: 0}, {due: 10 * time.Millisecond}, {due: 20 * time.Millisecond}, {due: 400 * time.Millisecond}}
	out := drive(arr, 1, func(conn int, a arrival) outcome {
		if a.due == 0 {
			time.Sleep(stall)
		}
		return outcome{}
	})
	for i, o := range out[1:3] {
		if lat := o.latencyMs(); lat < ms(stall-arr[i+1].due)-1 {
			t.Errorf("request %d queued behind the stall has latency %.1f ms, want >= %.1f", i+1, lat, ms(stall-arr[i+1].due))
		}
		if o.lagMs() <= 0 {
			t.Errorf("request %d lag %.1f ms, want > 0", i+1, o.lagMs())
		}
	}
	if lat := out[3].latencyMs(); lat > 50 {
		t.Errorf("request due after the stall cleared has latency %.1f ms", lat)
	}
	if lat := out[0].latencyMs(); lat < ms(stall) {
		t.Errorf("stalled request latency %.1f ms, want >= %.1f", lat, ms(stall))
	}
}

// A wrong value planted in one response must count as a failed
// operation, against the attempted ones.
func TestPlantedWrongValueCountsAsFailure(t *testing.T) {
	ref := &oracle{values: []float64{1, 2, 3}, stats: machine.Stats{Flops: 9, MsgsSent: 4, BytesSent: 32, MsgsRecv: 4}}
	m := &mix{tenants: []tenant{{name: "t", req: serve.RunRequest{Program: "jacobi", Grid: []int{1}}, kind: hot}}, refs: []*oracle{ref}}
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp := serve.RunResponse{Values: append([]float64(nil), ref.values...), Stats: ref.stats}
		if n.Add(1) == 3 {
			resp.Values[1] = math.Nextafter(resp.Values[1], 3) // one ulp off
		}
		_ = json.NewEncoder(w).Encode(resp)
	}))
	defer srv.Close()
	r := &run{host: &hostRecord{}, values: map[string]float64{}}
	c := newClient(strings.TrimPrefix(srv.URL, "http://"), m, nil)
	defer c.close()
	arr := make([]arrival, 5)
	r.drive(c, 1, arr)
	if r.attempted != 5 || r.failed != 1 {
		t.Fatalf("attempted %d, failed %d; want 5 and 1", r.attempted, r.failed)
	}
	if !strings.Contains(r.failures[0], "value 1") {
		t.Errorf("failure reason %q does not name the wrong value", r.failures[0])
	}
}

func TestCensusMismatchIsAFailure(t *testing.T) {
	o := &oracle{values: []float64{1}, stats: machine.Stats{MsgsSent: 4}}
	if err := o.check(runWith([]float64{1}, machine.Stats{MsgsSent: 5})); err == nil {
		t.Error("a run with one message too many passed the census check")
	}
	if err := o.check(runWith([]float64{1}, machine.Stats{MsgsSent: 4, IdleTime: 7})); err != nil {
		t.Errorf("times are not part of the census: %v", err)
	}
}

func TestMaxRateInterpolates(t *testing.T) {
	rates := []float64{40, 50, 60}
	if got := maxRate(rates, []float64{0.5, 0.8, 0.9}); got != 60 {
		t.Errorf("all rungs pass: max rate %v, want 60", got)
	}
	// Crossing between 50 (score 0.5) and 60 (score 2), in log(score):
	// halfway, 55.
	if got := maxRate(rates, []float64{0.2, 0.5, 2, 0.1}); math.Abs(got-55) > 1e-9 {
		t.Errorf("max rate %v, want 55", got)
	}
	if got := maxRate(rates, []float64{2, 0.1, 0.1}); got != 20 {
		t.Errorf("lowest rung at score 2: max rate %v, want 20", got)
	}
	if got := maxRate(rates, []float64{0.5, math.Inf(1), 0.1}); got != 40 {
		t.Errorf("failed rung: max rate %v, want 40", got)
	}
}

func runWith(values []float64, s machine.Stats) core.Run { return core.Run{Values: values, Stats: s} }

func TestRungScorePoolsSlices(t *testing.T) {
	at := func(lat ...float64) []outcome {
		var out []outcome
		for _, l := range lat {
			out = append(out, outcome{done: time.Duration(l * float64(time.Millisecond))})
		}
		return out
	}
	quick := at(1, 1, 1, 1, 1, 1, 1, 1, 1, 1)
	slow := at(1, 1, 1, 1, 1, 1, 1, 1, 300, 300)
	if s := rungScore([][]outcome{quick}); s > 0.1 {
		t.Errorf("quick slice scored %v", s)
	}
	if s := rungScore([][]outcome{slow}); s <= 1 {
		t.Errorf("slice with a 300 ms tail at p90 scored %v, want > 1", s)
	}
	// Pooled with three quick slices the two slow requests fall below p90.
	if s := rungScore([][]outcome{quick, slow, quick, quick}); s > 1 {
		t.Errorf("pooled score %v, want <= 1", s)
	}
	failed := at(1, 1)
	failed[1].err = errors.New("refused")
	if s := rungScore([][]outcome{quick, failed}); !math.IsInf(s, 1) {
		t.Errorf("a failed request scored %v, want +Inf", s)
	}
}

// Every hot pool key has a pair request on the same key, which warm
// sends, and the dealer never deals one.
func TestPairRequestsShareKeyAndAreNotDealt(t *testing.T) {
	m, err := newMix()
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hotTenants {
		_, key := requestOptions(h.req)
		pi, ok := m.pairs[key]
		if !ok {
			t.Fatalf("hot tenant %s has no pair request", h.name)
		}
		if p := m.tenants[pi]; p.kind != pair {
			t.Errorf("pair request of %s is tenant %s of kind %d", h.name, p.name, p.kind)
		} else if _, pk := requestOptions(p.req); pk != key {
			t.Errorf("pair request of %s is on key %s, want %s", h.name, pk, key)
		}
	}
	deal := m.dealer(rand.New(rand.NewPCG(1, 2)))
	for i := 0; i < 500; i++ {
		if ti := deal.next(); m.tenants[ti].kind == pair {
			t.Fatalf("dealt pair request %s", m.tenants[ti].name)
		}
	}
}
