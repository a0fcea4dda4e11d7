// Command ozzbench is OZZ's campaign benchmark. It drives the executors
// that campaigns actually run — core.Pool and the internal/dist fleet —
// through three closed-loop workloads, checks their outputs, and prints
// one JSON result line. From the repository root:
//
//	bash ozzbench/run.sh --workload steady|hunt|fleet --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// no benchmark-side instrumentation. With --trace 1 it holds the
// per-layer metrics: counters read from the registries the program
// exports, micro-benchmark rows, and self-time shares from spans the
// benchmark records around its calls into each layer. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one benchmark run: its arguments, its result, the determinism
// guard and, in traced runs, the span recorder.
type bench struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	outDir   string

	res    result
	values map[string]float64
	guard  *guard
	tr     *tracer
}

// set records a metric by its catalogue name; the unit comes from the
// catalogue, so a result can never carry a name or unit BENCHMARK.json
// does not declare.
func (b *bench) set(name string, v float64) {
	if _, ok := unitOf[name]; !ok {
		panic("ozzbench: metric not in catalogue: " + name)
	}
	b.values[name] = v
}

// fail marks the run incorrect and says why on standard error.
func (b *bench) fail(format string, args ...any) {
	b.res.Correct = false
	fmt.Fprintf(os.Stderr, "CHECK FAILED: "+format+"\n", args...)
}

// logf prints a human-readable progress or result line on standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func main() {
	workload := flag.String("workload", "", "workload to run: steady, hunt or fleet")
	seed := flag.Int64("seed", 1, "workload seed; every campaign seed of the run derives from it")
	seconds := flag.Int("seconds", 10, "measurement window in seconds (a run completes at least one full seed set)")
	traceMode := flag.Int("trace", 0, "0 reports end-to-end metrics; 1 runs the traced pass and reports per-layer metrics")
	outDir := flag.String("out", ".bench_build/ozzbench", "directory for span dumps, determinism records and fleet state")
	flag.Parse()
	if *seconds < 1 || (*traceMode != 0 && *traceMode != 1) || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: ozzbench --workload steady|hunt|fleet --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "ozzbench: unknown workload %q (want steady, hunt or fleet)\n", *workload)
		os.Exit(2)
	}
	if err := checkDeclared("BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "ozzbench:", err)
		os.Exit(1)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "ozzbench:", err)
		os.Exit(1)
	}
	g, err := newGuard(*outDir, *workload, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ozzbench:", err)
		os.Exit(1)
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		traced:   *traceMode == 1,
		outDir:   *outDir,
		res:      result{Correct: true},
		values:   make(map[string]float64),
		guard:    g,
	}
	if b.traced {
		b.tr = newTracer()
	}
	if err := run(b); err != nil {
		fmt.Fprintln(os.Stderr, "ozzbench:", err)
		os.Exit(1)
	}
	for _, msg := range g.finish() {
		b.fail("determinism: %s", msg)
	}
	if b.tr != nil {
		path, err := b.tr.dump(b.outDir, b.workload, b.seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ozzbench: writing spans:", err)
			os.Exit(1)
		}
		logf("spans: %d written to %s", b.tr.mark(), path)
	}
	emit(b)
}

// emit prints the human-readable rows on standard error and the JSON
// result as the last line of standard output. An end-to-end metric a
// workload failed to measure is a benchmark bug; a per-layer metric of a
// layer the workload never enters reads 0.
func emit(b *bench) {
	defs := endToEnd
	if b.traced {
		defs = perLayer
	}
	b.res.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := b.values[d.name]
		if !ok {
			if !b.traced {
				panic("ozzbench: end-to-end metric not measured: " + d.name)
			}
			v = 0
		}
		b.res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	names := make([]string, 0, len(b.values))
	for n := range b.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		logf("  %-34s %14.6g %s", n, b.values[n], unitOf[n])
	}
	logf("correct=%v attempted=%d failed=%d", b.res.Correct, b.res.Attempted, b.res.Failed)
	line, err := json.Marshal(b.res)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(line))
}

// workloads maps --workload names to their drivers.
var workloads = map[string]func(*bench) error{
	"steady": runSteady,
	"hunt":   runHunt,
	"fleet":  runFleet,
}
