package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sweep"
)

// tiny is the test scale: every workload in well under a second.
var tiny = scale{e7N: 256, e7Trials: 2, topoN: 256, topoTrials: 4}

func runTiny(t *testing.T, workload string, seed uint64, trace bool) (*result, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(config{
		workload: workload, seed: seed, trace: trace, build: t.TempDir(),
		scale: tiny, grace: 200 * time.Millisecond,
	}, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	return res, out.String()
}

// TestWorkloadsRun runs every workload, traced and untraced, and
// requires every named metric in the result line and in the printed
// output, each with its unit.
func TestWorkloadsRun(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, text := runTiny(t, w.name, 1, trace)
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				if !ok || v.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, d.name, v, d.unit)
				}
				if !strings.Contains(text, " "+d.name+" ") || !strings.Contains(text, " "+d.unit+"\n") {
					t.Errorf("%s trace=%v: output does not print %s with unit %s", w.name, trace, d.name, d.unit)
				}
			}
			if res.Attempted < 1 {
				t.Errorf("%s: attempted %d operations", w.name, res.Attempted)
			}
			// At n=256 a cell may legitimately miss 1-ε; every other
			// check must pass.
			for _, line := range strings.Split(text, "\n") {
				if strings.HasPrefix(line, "FAILED: ") && !strings.Contains(line, "below 1-ε") {
					t.Errorf("%s trace=%v: %s", w.name, trace, line)
				}
			}
		}
	}
}

// TestSpansNestAndClose requires every traced span to be closed, to sit
// inside its parent, and to have a parent that exists.
func TestSpansNestAndClose(t *testing.T) {
	for _, w := range workloads {
		b := &bench{w: w, spec: w.spec(2, tiny), threads: 2, work: t.TempDir(), grace: 200 * time.Millisecond}
		r, err := b.rep(0, true)
		if err != nil {
			t.Fatal(err)
		}
		names := map[string]int{}
		for _, sp := range r.spans.spans {
			names[sp.Name]++
			if sp.End < sp.Start {
				t.Errorf("%s: span %d %s ends before it starts", w.name, sp.ID, sp.Name)
			}
			if sp.Parent == 0 {
				continue
			}
			if sp.Parent >= sp.ID {
				t.Errorf("%s: span %d %s has parent %d recorded after it", w.name, sp.ID, sp.Name, sp.Parent)
				continue
			}
			p := r.spans.get(sp.Parent)
			if sp.Start < p.Start || sp.End > p.End {
				t.Errorf("%s: span %s [%d,%d] outside parent %s [%d,%d]",
					w.name, sp.Name, sp.Start, sp.End, p.Name, p.Start, p.End)
			}
		}
		for _, want := range []string{"rep", "sweep.expand", "sweep.job", "sweep.lookup", "core.run", "core.phase", "sweep.post", "store.append", "store.fsync", "sweep.render"} {
			if names[want] == 0 {
				t.Errorf("%s: no %s span", w.name, want)
			}
		}
		if w.fleet && (names["sweepd.rpc.claim"] == 0 || names["sweepd.rpc.report"] == 0) {
			t.Errorf("%s: no RPC spans: %v", w.name, names)
		}
		if w.netstore && names["graphio.save"] != names["sweep.job"] {
			t.Errorf("%s: %d saves for %d jobs", w.name, names["graphio.save"], names["sweep.job"])
		}
	}
}

// TestPerturbedAggregateTripsCheck perturbs one cell's aggregate and
// requires both the byte-identity and the Theorem 1 checks to fail.
func TestPerturbedAggregateTripsCheck(t *testing.T) {
	jobs, err := e7Spec(3, tiny).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	outs, err := sweep.Run(jobs, sweep.Options{Workers: 2, Cache: sweep.NewNetCacheWithStore(0, nil)})
	if err != nil {
		t.Fatal(err)
	}
	groups := sweep.Aggregate(outs)
	want := sweep.Markdown("t", groups)
	var clean tally
	checkIdentical(want, sweep.Markdown("t", sweep.Aggregate(outs)), "rerender", &clean)
	if clean.failed != 0 {
		t.Fatalf("identical renderings reported as different: %v", clean.notes)
	}

	groups[0].Agg.Add(metrics.Summary{SurvivorCorrectFraction: 0})
	groups[0].Agg.Add(metrics.Summary{SurvivorCorrectFraction: 0})
	var bad tally
	checkIdentical(want, sweep.Markdown("t", groups), "perturbed", &bad)
	rows := checkBand(groups, &bad)
	if bad.failed < 2 || rows[0].ok() {
		t.Fatalf("perturbed aggregate passed: failed %d, notes %v", bad.failed, bad.notes)
	}
	if !strings.Contains(strings.Join(bad.notes, "\n"), groups[0].Job.Label()) {
		t.Errorf("the failing cell is not named: %v", bad.notes)
	}
}

// TestSeedChangesKeysNotMetricNames: the seed argument selects the
// inputs, never the shape of the report.
func TestSeedChangesKeysNotMetricNames(t *testing.T) {
	for _, w := range workloads {
		a, _ := w.spec(1+1, tiny).Jobs()
		b, _ := w.spec(2+1, tiny).Jobs()
		if len(a) != len(b) || a[0].Key() == b[0].Key() {
			t.Errorf("%s: seeds 1 and 2 give %d/%d jobs, first keys equal=%v", w.name, len(a), len(b), a[0].Key() == b[0].Key())
		}
	}
	r1, _ := runTiny(t, "e7-grid", 1, false)
	r2, _ := runTiny(t, "e7-grid", 2, false)
	for name := range r1.Metrics {
		if _, ok := r2.Metrics[name]; !ok {
			t.Errorf("metric %s missing under seed 2", name)
		}
	}
	if len(r1.Metrics) != len(r2.Metrics) {
		t.Errorf("seed 1 reports %d metrics, seed 2 %d", len(r1.Metrics), len(r2.Metrics))
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables here in
// step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(cfg.Workloads), len(workloads))
	}
	for i, w := range cfg.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("workload %d %q unknown", i, w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), benchmark %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", cfg.EndToEnd, endToEnd)
	same("per_layer", cfg.PerLayer, perLayer)
}
