package main

// workload.go defines the three workloads and runs one repetition of
// each: a set-up (timed as setup_s), the timed phase (wall_s) and the
// output checks. A repetition is identical traced and untraced except
// for the seams the recorder plugs in.

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/adversary"
	"repro/internal/graphio"
	"repro/internal/hgraph"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/sweepd"
)

// scale sets the grid sizes; tests shrink it.
type scale struct {
	e7N, e7Trials     int
	topoN, topoTrials int
}

var fullScale = scale{e7N: 4096, e7Trials: 8, topoN: 8192, topoTrials: 24}

type workload struct {
	name, why string
	// fleet runs the grid through an in-process sweepd coordinator and
	// two workers over loopback HTTP; otherwise sweep.RunContext runs it.
	fleet bool
	// netstore gives the single-process run an empty topology store.
	netstore bool
	spec     func(seed uint64, sc scale) sweep.Spec
}

// e7Spec is the Theorem 1 grid: every adversary against the Byzantine
// algorithm at δ = 0.75.
//
// MaxPhase caps the simulator at log₂ n phases (12 at n=4096) instead of
// the core default 4·log₂ n + 16 (64). Correct runs decide by phase 9 at
// n=4096, and their aggregates are byte-identical under either cap. On
// some 4–10% of seeds one combo-adversary trial leaves most honest nodes
// active phase after phase: under the default cap that job alone runs
// ~89k rounds (minutes), under this one ~650. Either way its nodes end
// undecided and the cell fails the Theorem 1 check, which names it.
func e7Spec(seed uint64, sc scale) sweep.Spec {
	return sweep.Spec{
		Name: "e7-grid", Sizes: []int{sc.e7N}, Degrees: []int{8}, Deltas: []float64{0.75},
		Adversaries: adversary.Names(), Algorithms: []string{"byzantine"},
		Trials: sc.e7Trials, Seed: seed, MaxPhase: int(math.Log2(float64(sc.e7N))),
	}
}

var workloads = []workload{
	{
		name: "e7-grid",
		why:  "the paper's Theorem 1 grid, engine-bound: one topology per trial shared by all 7 adversaries",
		spec: e7Spec,
	},
	{
		name: "topo-cold", netstore: true,
		why: "topology churn: every job generates and saves its own topology and runs the cheap Algorithm 1",
		spec: func(seed uint64, sc scale) sweep.Spec {
			return sweep.Spec{
				Name: "topo-cold", Sizes: []int{sc.topoN}, Degrees: []int{8}, Deltas: []float64{0},
				Adversaries: []string{"none"}, Algorithms: []string{"basic"},
				Trials: sc.topoTrials, Seed: seed,
			}
		},
	},
	{
		name: "fleet-warm", fleet: true,
		why:  "the e7-grid through a loopback coordinator and two workers loading topologies from a filled netstore",
		spec: e7Spec,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bench runs repetitions of one workload at one seed.
type bench struct {
	w       workload
	spec    sweep.Spec
	threads int    // job threads: scheduler workers, or fleet workers × 1
	work    string // scratch directory for stores and netstores
	grace   time.Duration
}

// repOut is one repetition's outcome.
type repOut struct {
	traced      bool
	setup, wall time.Duration
	jobs        int
	rendered    string
	band        []bandRow
	jobMS       []float64
	peakHeap    uint64
	allocs      uint64
	allocBytes  uint64
	checks      tally
	layer       map[string]float64
	spans       *spanSet
}

// readAllocs returns the process's cumulative heap allocations.
func readAllocs() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// heapSampler tracks the peak Go heap in use while the timed phase runs.
type heapSampler struct {
	stop chan struct{}
	peak chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		read := func() {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
		}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			read()
			select {
			case <-h.stop:
				read()
				h.peak <- peak
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) finish() uint64 {
	close(h.stop)
	return <-h.peak
}

// timed brackets the timed phase: heap sampling and allocation deltas.
type timed struct {
	heap   *heapSampler
	a0, b0 uint64
	start  time.Time
}

func beginTimed(rec *recorder) *timed {
	t := &timed{heap: startHeapSampler()}
	t.a0, t.b0 = readAllocs()
	t.start = time.Now()
	if rec != nil {
		rec.origin = t.start
	}
	return t
}

func (t *timed) end(out *repOut) {
	out.wall = time.Since(t.start)
	out.peakHeap = t.heap.finish()
	a1, b1 := readAllocs()
	out.allocs, out.allocBytes = a1-t.a0, b1-t.b0
}

// rep runs repetition idx.
func (b *bench) rep(idx int, traced bool) (*repOut, error) {
	dir := filepath.Join(b.work, fmt.Sprintf("rep-%d", idx))
	defer os.RemoveAll(dir)
	if b.w.fleet {
		return b.fleetRep(dir, idx, traced)
	}
	return b.singleRep(dir, idx, traced)
}

// singleRep runs the grid through sweep.RunContext, as cmd/sweep -store
// does: JSONL store, run-log, memory network cache (plus an empty
// topology store for topo-cold).
func (b *bench) singleRep(dir string, idx int, traced bool) (*repOut, error) {
	out := &repOut{traced: traced}
	setupStart := time.Now()
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	tap := &logTap{lane: "w"}
	var ns *graphio.NetStore
	if b.w.netstore {
		var err error
		if ns, err = graphio.OpenNetStore(filepath.Join(dir, "netstore")); err != nil {
			return nil, err
		}
		if traced {
			ns.SetSaveHook(rec.saveHook())
		}
	}
	cache := sweep.NewNetCacheWithStore(0, ns)
	cache.SetTelemetry(reg)
	storePath := filepath.Join(dir, "store.jsonl")
	store, err := sweep.OpenStoreHooked(storePath, rec.storeHook())
	if err != nil {
		return nil, err
	}
	opts := sweep.Options{
		Workers: b.threads, Cache: cache, Store: store,
		Telemetry: reg, RunLog: obs.NewRunLog(tap), Observer: rec.observerFor("w"),
	}
	if err := b.warmUp(); err != nil {
		store.Close()
		return nil, err
	}
	runtime.GC()
	out.setup = time.Since(setupStart)

	tm := beginTimed(rec)
	var (
		jobs   []sweep.Job
		outs   []sweep.Outcome
		groups []sweep.Group
		errs   [2]error
	)
	rec.mark("sweep.expand", func() { jobs, errs[0] = b.spec.Jobs() })
	if errs[0] != nil {
		store.Close()
		return nil, errs[0]
	}
	// A failed job fails the run only through its Outcome, which
	// checkJobs counts; RunContext's error repeats the first of them.
	rec.mark("sweep.run", func() { outs, _ = sweep.RunContext(context.Background(), jobs, opts) })
	rec.mark("sweep.render", func() {
		groups = sweep.Aggregate(outs)
		out.rendered = sweep.Markdown("Sweep "+b.spec.Name, groups)
	})
	rec.mark("store.close", func() { errs[1] = store.Close() })
	tm.end(out)
	if errs[1] != nil {
		return nil, errs[1]
	}

	checkJobs(outs, &out.checks)
	if err := checkRecords(storePath, jobs, &out.checks); err != nil {
		return nil, err
	}
	if ns != nil {
		if err := checkNetstore(ns, jobs, &out.checks); err != nil {
			return nil, err
		}
	}
	out.band = checkBand(groups, &out.checks)
	records := tap.jobs()
	fillLatencies(out, jobs, records)
	if traced {
		in := layerInput{
			rep: idx, wall: out.wall, threads: b.threads, jobs: records,
			workerReg: []*obs.Registry{reg}, rec: rec, nets: netKeys(jobs),
		}
		in.set = assemble(in)
		out.spans = in.set
		out.layer = layerMetrics(in)
	}
	return out, nil
}

// warmUp runs the grid's first job once on throwaway state (memory-only
// cache, no store, private registry), so the runtime's lazily built
// state — heap growth, worker pools, page-faulted arenas — is in place
// before the timed phase. It is part of set-up.
func (b *bench) warmUp() error {
	jobs, err := b.spec.Jobs()
	if err != nil {
		return err
	}
	_, err = sweep.Run(jobs[:1], sweep.Options{
		Workers: 1, Cache: sweep.NewNetCacheWithStore(0, nil), Telemetry: obs.NewRegistry(),
	})
	return err
}

// fillLatencies records the per-job latencies (job_start → job_done
// arrival).
func fillLatencies(out *repOut, jobs []sweep.Job, records []jobRecord) {
	out.jobs = len(jobs)
	for _, r := range records {
		out.jobMS = append(out.jobMS, float64(r.end.Sub(r.start).Nanoseconds())/1e6)
	}
}

func netKeys(jobs []sweep.Job) map[hgraph.Params][]string {
	m := map[hgraph.Params][]string{}
	for _, j := range jobs {
		p := j.Net.Canonical()
		m[p] = append(m[p], j.Key())
	}
	return m
}

// fleetRep runs the grid through an in-process sweepd coordinator with
// cmd/sweepd's defaults (journal on, 8 shards, default lease TTL,
// stealing off), served over loopback HTTP to two workers of one job
// thread each that share a topology store the set-up filled.
func (b *bench) fleetRep(dir string, idx int, traced bool) (*repOut, error) {
	out := &repOut{traced: traced}
	setupStart := time.Now()
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ns, err := graphio.OpenNetStore(filepath.Join(dir, "netstore"))
	if err != nil {
		return nil, err
	}
	// Fill the topology store with the grid's distinct topologies, as
	// cmd/netgen -pregen would. The benchmark expands the spec here only
	// to learn which topologies to make.
	fillJobs, err := b.spec.Jobs()
	if err != nil {
		return nil, err
	}
	fill := sweep.NewNetCacheWithStore(0, ns)
	fill.SetTelemetry(obs.NewRegistry())
	for _, p := range distinctNets(fillJobs) {
		if _, err := fill.GetTopology(p); err != nil {
			return nil, err
		}
	}
	if traced {
		ns.SetSaveHook(rec.saveHook())
	}
	coordReg := obs.NewRegistry()
	storePath := filepath.Join(dir, "store.jsonl")
	store, err := sweep.OpenStoreHooked(storePath, rec.storeHook())
	if err != nil {
		return nil, err
	}
	journal, err := sweepd.OpenJournal(storePath + ".journal")
	if err != nil {
		store.Close()
		return nil, err
	}
	coordLog := obs.NewRunLog(&logTap{})
	const fleetSize = 2
	names := make([]string, fleetSize)
	taps := make([]*logTap, fleetSize)
	regs := make([]*obs.Registry, fleetSize)
	opts := make([]sweep.Options, fleetSize)
	for i := range names {
		names[i] = fmt.Sprintf("w%d", i)
		taps[i] = &logTap{lane: names[i]}
		regs[i] = obs.NewRegistry()
		cache := sweep.NewNetCacheWithStore(0, ns)
		cache.SetTelemetry(regs[i])
		opts[i] = sweep.Options{
			Workers: 1, RunWorkers: 1, Cache: cache, Telemetry: regs[i],
			RunLog: obs.NewRunLog(taps[i]), Observer: rec.observerFor(names[i]),
		}
	}
	if err := b.warmUp(); err != nil {
		store.Close()
		return nil, err
	}
	runtime.GC()
	out.setup = time.Since(setupStart)

	type exit struct {
		at  time.Time
		err error
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	exits := make(chan exit, fleetSize)
	var (
		jobs   []sweep.Job
		coord  *sweepd.Coordinator
		srv    *obs.Server
		groups []sweep.Group
		outs   []sweep.Outcome
		doneAt time.Time
		errs   [3]error
	)
	tm := beginTimed(rec)
	rec.mark("sweep.expand", func() { jobs, errs[0] = b.spec.Jobs() })
	if errs[0] != nil {
		store.Close()
		return nil, errs[0]
	}
	rec.mark("sweepd.start", func() {
		coord, errs[1] = sweepd.NewCoordinator(jobs, sweepd.Config{
			Name: b.spec.Name, Store: store, Journal: journal,
			Telemetry: coordReg, RunLog: coordLog,
		})
		if errs[1] != nil {
			return
		}
		if srv, errs[1] = obs.Serve("127.0.0.1:0", coord.Handler()); errs[1] != nil {
			return
		}
		for i, name := range names {
			w := sweepd.NewWorker(sweepd.WorkerOptions{
				Coordinator: "http://" + srv.Addr(), Name: name,
				Opts: opts[i], Client: rec.client(name),
			})
			go func() {
				start := time.Now()
				err := w.Run(ctx)
				end := time.Now()
				rec.workerRan(name, start, end)
				exits <- exit{at: end, err: err}
			}()
		}
	})
	if errs[1] != nil {
		store.Close()
		return nil, errs[1]
	}
	rec.mark("sweepd.fleet", func() {
		select {
		case <-coord.Done():
		case <-time.After(fleetTimeout):
			coord.Abort()
			errs[2] = fmt.Errorf("fleet did not finish within %s", fleetTimeout)
		}
		doneAt = time.Now()
	})
	// Stop serving as soon as the sweep is done, as cmd/sweepd exits.
	rec.mark("sweepd.stop", func() { srv.Close() })
	outs = coord.Outcomes()
	rec.mark("sweep.render", func() {
		groups = sweep.Aggregate(outs)
		out.rendered = sweep.Markdown("Sweep "+b.spec.Name, groups)
	})
	var closeErr error
	rec.mark("store.close", func() { closeErr = store.Close() })
	tm.end(out)

	// Lifecycle: every worker gets a bounded grace after Done to return
	// on its own; the ones still running are counted, then canceled.
	deadline := doneAt.Add(b.grace)
	grace := time.NewTimer(time.Until(deadline))
	defer grace.Stop()
	returned, onTime := 0, 0
wait:
	for returned < fleetSize {
		select {
		case e := <-exits:
			returned++
			if !e.at.After(deadline) {
				onTime++
				out.checks.check(e.err == nil, "fleet worker exited with %v", e.err)
			}
		case <-grace.C:
			break wait
		}
	}
	late := fleetSize - onTime
	cancel()
	for returned < fleetSize {
		select {
		case <-exits:
			returned++
		case <-time.After(workerStopTimeout):
			return nil, fmt.Errorf("%d fleet workers did not stop after cancel", fleetSize-returned)
		}
	}
	if errs[2] != nil {
		return nil, errs[2]
	}
	if closeErr != nil {
		return nil, closeErr
	}

	checkJobs(outs, &out.checks)
	rejected := coordReg.Snapshot().Counters["sweepd.records.rejected"]
	out.checks.check(rejected == 0, "coordinator refused %d records", rejected)
	out.checks.check(coord.Errors() == 0, "workers reported %d job errors", coord.Errors())
	if err := checkRecords(storePath, jobs, &out.checks); err != nil {
		return nil, err
	}
	out.band = checkBand(groups, &out.checks)
	var records []jobRecord
	for _, t := range taps {
		records = append(records, t.jobs()...)
	}
	fillLatencies(out, jobs, records)
	if traced {
		byKey := map[string]sweep.Job{}
		for _, j := range jobs {
			byKey[j.Key()] = j
		}
		var loadBytes int64
		for _, r := range records {
			if r.tier != sweep.TierDisk {
				continue
			}
			if st, err := os.Stat(ns.Path(byKey[r.key].Net)); err == nil {
				loadBytes += st.Size()
			}
		}
		in := layerInput{
			wall: out.wall, threads: fleetSize, jobs: records,
			workerReg: regs, fleet: true, loadBytes: loadBytes,
			distinct: len(distinctNets(jobs)), late: late,
			doneAt: doneAt.Sub(tm.start), rec: rec, nets: netKeys(jobs), rep: idx,
		}
		in.set = assemble(in)
		out.spans = in.set
		out.layer = layerMetrics(in)
	}
	return out, nil
}

const (
	fleetTimeout      = 150 * time.Second
	workerStopTimeout = 20 * time.Second
)
