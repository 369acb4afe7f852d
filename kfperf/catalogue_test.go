package main

import (
	"encoding/json"
	"os"
	"testing"
)

type benchFile struct {
	Command   []string                `json:"command"`
	Paths     []string                `json:"paths"`
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// The catalogue and BENCHMARK.json must list the same gated end-to-end
// and per-layer metrics, and every layer-to-metric mapping must name an
// end-to-end metric kfperf reports (gated or not) on the workload named.
// kfperf refuses to print a result that lacks a catalogue metric of its
// workload, so every name here is one it emits.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not one kfperf runs", w.Name)
		}
	}
	var inFile []metricDef
	for _, m := range bf.EndToEnd {
		inFile = append(inFile, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better, kind: kindEndToEnd})
	}
	for _, m := range bf.PerLayer {
		inFile = append(inFile, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better, kind: kindLayer})
	}
	var inCatalogue []metricDef
	endToEnd := map[string]metricDef{}
	for _, d := range catalogue {
		if d.kind != kindReported {
			inCatalogue = append(inCatalogue, d)
		}
		if d.kind != kindLayer {
			endToEnd[d.Name] = d
		} else if len(d.on) > 0 {
			t.Errorf("per-layer metric %s is limited to %v; the traced run of every workload reports every layer", d.Name, d.on)
		}
	}
	if len(inFile) != len(inCatalogue) {
		t.Fatalf("BENCHMARK.json lists %d metrics, the catalogue gates %d", len(inFile), len(inCatalogue))
	}
	for i, d := range inCatalogue {
		f := inFile[i]
		if f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better || f.kind != d.kind {
			t.Errorf("metric %d: BENCHMARK.json has %+v, catalogue %+v", i, f, d)
		}
		if d.kind == kindLayer && d.layer != "harness" && len(d.moves) == 0 {
			t.Errorf("%s maps to no end-to-end metric", d.Name)
		}
		for _, mv := range d.moves {
			e, ok := endToEnd[mv.Metric]
			if _, run := workloads[mv.Workload]; !run || !ok || !e.appliesTo(mv.Workload) {
				t.Errorf("%s moves %s on %s, which kfperf does not report", d.Name, mv.Metric, mv.Workload)
			}
		}
	}
}
