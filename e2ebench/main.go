// Command e2ebench is the repository's end-to-end benchmark. It runs one
// named workload (a sweep grid generated from --seed) through the
// library's public API for --seconds, checks the outputs, and prints
// every metric by name and unit; the last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (wall time,
// throughput, job latency, set-up time, peak heap); with --trace 1 they
// are the per-layer ones, taken from traced repetitions interleaved with
// untraced ones. See README.md for the metric table.
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload e7-grid --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. failed_frac is carried by the result line's "attempted"
// and "failed" fields.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"jobs_per_s", "1/s"},
	{"job_ms_p50", "ms"},
	{"job_ms_p80", "ms"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the per-layer metrics of the traced run.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sweep.expand_ms", "ms"},
		{"sweep.idle_frac", "fraction"},
		{"sweep.lookup_ms", "ms"},
		{"sweep.cache.mem_hits", "count"},
		{"sweep.cache.gen", "count"},
		{"sweep.cache.disk_hits", "count"},
		{"sweep.cache.coalesced", "count"},
		{"sweep.post_ms", "ms"},
		{"sweep.render_ms", "ms"},
		{"hgraph.gen_ms", "ms"},
		{"hgraph.gen_count", "count"},
		{"graphio.save_ms", "ms"},
		{"graphio.save_mb", "MB"},
		{"graphio.load_ms", "ms"},
		{"graphio.load_mb", "MB"},
		{"core.run_ms", "ms"},
		{"core.run_ms_p50", "ms"},
		{"core.phase_ms", "ms"},
		{"core.runs", "count"},
		{"core.rounds", "count"},
		{"core.messages", "count"},
		{"core.bits", "count"},
		{"core.ns_per_message", "ns/message"},
		{"core.allocs_per_job", "allocs/job"},
		{"core.alloc_mb_per_job", "MB/job"},
		{"store.appends", "count"},
		{"store.append_ms", "ms"},
		{"store.bytes", "bytes"},
		{"store.fsyncs", "count"},
		{"store.fsync_ms", "ms"},
	}
	for _, ep := range rpcEndpoints {
		defs = append(defs,
			metricDef{"sweepd.rpc." + ep + ".count", "count"},
			metricDef{"sweepd.rpc." + ep + ".ms_p50", "ms"},
			metricDef{"sweepd.rpc." + ep + ".ms_total", "ms"})
	}
	return append(defs,
		metricDef{"sweepd.rpc.retries", "count"},
		metricDef{"sweepd.rpc.errors", "count"},
		metricDef{"sweepd.claims_empty", "count"},
		metricDef{"sweepd.worker_idle_ms", "ms"},
		metricDef{"sweepd.tail_ms", "ms"},
		metricDef{"sweepd.topo_loads_per_distinct", "ratio"},
		metricDef{"sweepd.worker_exit_late", "count"},
		metricDef{"trace.unaccounted_frac", "fraction"},
		metricDef{"trace.overhead_frac", "fraction"},
	)
}()

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// build is the directory for scratch stores and trace files.
	build string
	scale scale
	// grace is how long fleet workers get to return after Done.
	grace time.Duration
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	cfg := config{scale: fullScale, grace: time.Second}
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload name: e7-grid, topo-cold or fleet-warm")
	seed := fs.String("seed", "1", "workload seed (unsigned integer)")
	secs := fs.Float64("seconds", 30, "measuring time: repetitions are started while they still fit")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from traced repetitions")
	fs.StringVar(&cfg.build, "build", filepath.Join(".bench_build", "e2ebench"), "scratch directory")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	s, err := strconv.ParseUint(*seed, 10, 64)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: bad --seed: %v\n", err)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "e2ebench: --trace must be 0 or 1, not %d\n", *trace)
		os.Exit(2)
	}
	cfg.seed = s
	cfg.seconds = time.Duration(*secs * float64(time.Second))
	cfg.trace = *trace == 1
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one invocation and returns its result; human-readable
// lines go to out.
func run(cfg config, out io.Writer) (*result, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	// Spec.Seed 0 selects the default 1; shifting keeps every --seed
	// distinct.
	spec := w.spec(cfg.seed+1, cfg.scale)
	threads := min(2, runtime.GOMAXPROCS(0))
	b := &bench{w: w, spec: spec, threads: threads, grace: cfg.grace,
		work: filepath.Join(cfg.build, "work-"+w.name)}
	if err := os.RemoveAll(b.work); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.work)
	fmt.Fprintf(out, "e2ebench %s seed=%d (spec seed %d) threads=%d GOMAXPROCS=%d trace=%v\n",
		w.name, cfg.seed, spec.Seed, threads, runtime.GOMAXPROCS(0), cfg.trace)

	var reps []*repOut
	start := time.Now()
	for i := 0; ; i++ {
		repStart := time.Now()
		// Traced runs interleave untraced and traced repetitions, so
		// the tracing overhead is measured on the same machine state.
		traced := cfg.trace && i%2 == 1
		r, err := b.rep(i, traced)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", i, err)
		}
		reps = append(reps, r)
		fmt.Fprintf(out, "rep %d traced=%v setup %.4f s wall %.4f s jobs %d peak heap %.1f MB checks %d/%d failed\n",
			i, traced, r.setup.Seconds(), r.wall.Seconds(), r.jobs, float64(r.peakHeap)/1e6,
			r.checks.failed, r.checks.attempted)
		// Start another repetition only if one more like the last still
		// ends inside the measuring time; a traced run needs one
		// untraced and one traced repetition at least.
		if time.Since(start)+time.Since(repStart) > cfg.seconds && (!cfg.trace || i >= 1) {
			break
		}
	}

	var checks tally
	for i, r := range reps {
		checks.merge(r.checks)
		if i > 0 {
			checkIdentical(reps[0].rendered, r.rendered, fmt.Sprintf("repetition %d vs 0", i), &checks)
		}
	}
	if w.fleet {
		// The fleet must render exactly what a single process renders
		// for the same spec (untimed: verification only).
		single, _ := workloadByName("e7-grid")
		ref := &bench{w: single, spec: spec, threads: threads, work: b.work}
		r, err := ref.rep(len(reps), false)
		if err != nil {
			return nil, fmt.Errorf("single-process reference: %w", err)
		}
		checks.merge(r.checks)
		checkIdentical(r.rendered, reps[0].rendered, "fleet vs single-process e7-grid", &checks)
	}

	fmt.Fprintln(out, "cells vs Theorem 1 (survivor-correct fraction >= 1-ε):")
	for _, row := range reps[0].band {
		verdict := "ok"
		if !row.ok() {
			verdict = "BELOW"
		}
		fmt.Fprintf(out, "  %-60s %.4f >= %.4f %s\n", row.label, row.survivor, row.threshold, verdict)
	}
	for _, n := range checks.notes {
		fmt.Fprintf(out, "FAILED: %s\n", n)
	}
	fmt.Fprintf(out, "operations attempted %d, failed %d, failed_frac %.4g\n",
		checks.attempted, checks.failed, float64(checks.failed)/float64(max(checks.attempted, 1)))

	var plain, traced []*repOut
	for _, r := range reps {
		if r.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	e2e := endToEndMetrics(plain, reps)
	res := &result{
		Correct: checks.failed == 0, Attempted: checks.attempted, Failed: checks.failed,
		Metrics: map[string]metricValue{},
	}
	printMetrics(out, "end-to-end (untraced repetitions)", endToEnd, e2e)
	var samples, beyond int
	for _, r := range plain {
		for _, ms := range r.jobMS {
			samples++
			if ms > e2e["job_ms_p80"] {
				beyond++
			}
		}
	}
	fmt.Fprintf(out, "  job latency samples: %d over %d repetitions, %d beyond p80\n",
		samples, len(plain), beyond)
	if !cfg.trace {
		fill(res, endToEnd, e2e)
		return res, nil
	}
	layer := perLayerMetrics(plain, traced)
	printMetrics(out, "per-layer (traced repetitions)", perLayer, layer)
	fill(res, perLayer, layer)
	path := filepath.Join(cfg.build, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, cfg.seed))
	if err := writeSpans(path, traced); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans written to %s\n", path)
	return res, nil
}

// endToEndMetrics takes medians over the untraced repetitions; setup_s
// is the median over every repetition's set-up.
func endToEndMetrics(plain, all []*repOut) map[string]float64 {
	var walls, rates, heaps, setups, lat []float64
	for _, r := range plain {
		walls = append(walls, r.wall.Seconds())
		rates = append(rates, float64(r.jobs)/r.wall.Seconds())
		heaps = append(heaps, float64(r.peakHeap)/1e6)
		lat = append(lat, r.jobMS...)
	}
	for _, r := range all {
		setups = append(setups, r.setup.Seconds())
	}
	return map[string]float64{
		"wall_s":       quantile(walls, 0.5),
		"jobs_per_s":   quantile(rates, 0.5),
		"job_ms_p50":   quantile(lat, 0.5),
		"job_ms_p80":   quantile(lat, 0.8),
		"setup_s":      quantile(setups, 0.5),
		"peak_heap_mb": quantile(heaps, 0.5),
	}
}

// perLayerMetrics takes each per-layer value's median over the traced
// repetitions, and adds the figures that come from untraced ones:
// process-wide allocation deltas and the tracing overhead.
func perLayerMetrics(plain, traced []*repOut) map[string]float64 {
	m := map[string]float64{}
	for _, def := range perLayer {
		var vals []float64
		for _, r := range traced {
			if v, ok := r.layer[def.name]; ok {
				vals = append(vals, v)
			}
		}
		if len(vals) > 0 {
			m[def.name] = quantile(vals, 0.5)
		}
	}
	var allocs, mb, pw, tw []float64
	for _, r := range plain {
		allocs = append(allocs, float64(r.allocs)/float64(r.jobs))
		mb = append(mb, float64(r.allocBytes)/1e6/float64(r.jobs))
		pw = append(pw, r.wall.Seconds())
	}
	for _, r := range traced {
		tw = append(tw, r.wall.Seconds())
	}
	m["core.allocs_per_job"] = quantile(allocs, 0.5)
	m["core.alloc_mb_per_job"] = quantile(mb, 0.5)
	m["trace.overhead_frac"] = quantile(tw, 0.5)/quantile(pw, 0.5) - 1
	return m
}

func fill(res *result, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
}

func printMetrics(out io.Writer, title string, defs []metricDef, vals map[string]float64) {
	fmt.Fprintf(out, "%s:\n", title)
	for _, d := range defs {
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", d.name, vals[d.name], d.unit)
	}
}

// writeSpans writes every traced repetition's spans as JSON lines.
func writeSpans(path string, reps []*repOut) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range reps {
		for _, sp := range r.spans.spans {
			if err := enc.Encode(sp); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}

// quantile interpolates linearly between the order statistics of vals
// (NaN-free; 0 for an empty slice).
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
