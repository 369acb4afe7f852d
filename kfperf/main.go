// Command kfperf is the repository's benchmark. It runs one workload for a
// fixed time and prints, as the last line of standard output, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the gated end-to-end ones (see catalogue.go), the
// ungated ones printed above it; with --trace 1 a separate, traced run
// measures the per-layer ones and writes its spans to the output
// directory.
//
//	kfperf --workload jacobi-fed --seed 1 --seconds 35 --trace 0
//
// Workloads: jacobi-fed, jacobi-ipc and serve-mixed (see README.md).
// Every run is checked against a reference computed at set-up; a wrong
// value, a wrong census, an error, a refused request or a leaked worker
// process makes "correct" false and counts in "failed".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	_ "repro/internal/progs" // registers the programs and arms worker-side execution
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state one invocation threads through a workload.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	outDir   string
	kfserve  string // path of the kfserve binary (serve-mixed and the traced serve layers)
	host     *hostRecord
	tr       *tracer  // nil when untraced
	procs    *procSet // the traced run's process set, for its leak check

	attempted, failed int64
	failures          []string // first few failure reasons, for the log
	values            map[string]float64
}

// fail counts one failed operation and keeps its reason for the log.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// set records a metric value; units come from the catalogue.
func (r *run) set(name string, v float64) { r.values[name] = v }

// workloads maps each workload to its untraced measurement. The traced
// run (traceLayers) is shared: it reads the workload's name for the
// metrics it takes on the workload's own operation.
var workloads = map[string]func(*run) error{
	fed:   func(r *run) error { return measureLoop(r, jacobiLoop("federated")) },
	ipc:   func(r *run) error { return measureLoop(r, jacobiLoop("ipc")) },
	mixed: measureServe,
}

func main() { os.Exit(mainErr()) }

func mainErr() int {
	workload := flag.String("workload", "", "workload: jacobi-fed, jacobi-ipc or serve-mixed")
	seed := flag.Int64("seed", 1, "workload seed: same seed, same inputs")
	seconds := flag.Int("seconds", 35, "measurement time in seconds")
	traceOn := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	outDir := flag.String("out", ".", "directory for the span file")
	kfserve := flag.String("kfserve", "kfserve", "path of the kfserve binary")
	flag.Parse()
	measure, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "kfperf: need --workload (jacobi-fed|jacobi-ipc|serve-mixed), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		outDir: *outDir, kfserve: *kfserve,
		host:   newHostRecord(*workload, *seed, *traceOn == 1),
		values: map[string]float64{},
	}
	kind, f := kindEndToEnd, measure
	if *traceOn == 1 {
		r.tr = newTracer()
		kind, f = kindLayer, traceLayers
	}
	if err := f(r); err != nil {
		fmt.Fprintf(os.Stderr, "kfperf: %s: %v\n", *workload, err)
		return 1
	}
	if r.tr != nil {
		path := filepath.Join(r.outDir, fmt.Sprintf("kfperf-spans-%s-%d.json", *workload, *seed))
		if err := r.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "kfperf: write spans: %v\n", err)
			return 1
		}
		printSelfTimes(r.tr)
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range catalogue {
		if !d.appliesTo(*workload) || (d.kind != kind && (kind != kindEndToEnd || d.kind != kindReported)) {
			continue
		}
		v, ok := r.values[d.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "kfperf: %s: metric %s was not measured\n", *workload, d.Name)
			return 1
		}
		printMetric(d, v)
		if d.kind == kind {
			res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		}
	}
	fmt.Printf("%-28s %14d\n%-28s %14d\n", "attempted", res.Attempted, "failed", res.Failed)
	res.Correct = r.failed == 0 && r.attempted > 0
	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "kfperf: failure: %s\n", f)
	}
	r.host.finish()
	host, _ := json.Marshal(r.host)
	fmt.Println(string(host))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kfperf: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// printMetric writes one metric by name with its unit; an ungated one is
// marked.
func printMetric(d metricDef, v float64) {
	note := ""
	if d.kind == kindReported {
		note = "  (reported, not gated)"
	}
	fmt.Printf("%-28s %14.4f %s%s\n", d.Name, v, d.Unit, note)
}

// printSelfTimes writes each span name's self time to standard error.
func printSelfTimes(t *tracer) {
	self := selfTime(t.spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "self %-26s %10.1f ms\n", n, ms(self[n]))
	}
}
