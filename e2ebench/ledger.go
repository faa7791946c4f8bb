package main

// ledger.go turns one traced repetition's raw events into spans and the
// per-layer metrics. Every number here is either a span duration taken
// at a seam, a duration the program itself reported (run-log stage
// times), or an exact count read from an obs.Registry the benchmark
// supplied; nothing is scaled to make the layers sum to the wall time.

import (
	"sort"
	"time"

	"repro/internal/hgraph"
	"repro/internal/obs"
)

// spanSet accumulates a repetition's spans.
type spanSet struct {
	rep   int
	spans []span
}

func (s *spanSet) add(sp span) int {
	sp.Rep = s.rep
	sp.ID = len(s.spans) + 1
	s.spans = append(s.spans, sp)
	return sp.ID
}

func (s *spanSet) get(id int) *span { return &s.spans[id-1] }

// within reports whether [a, b] lies inside span id.
func (s *spanSet) within(id int, a, b int64) bool {
	sp := s.get(id)
	return a >= sp.Start && b <= sp.End
}

// assemble builds the repetition's span tree.
func assemble(t layerInput) *spanSet {
	r := t.rec
	s := &spanSet{rep: t.rep}
	root := s.add(span{Name: "rep", Lane: "main", Start: 0, End: t.wall.Nanoseconds()})
	named := map[string]int{}
	for _, m := range r.main {
		m.Parent = root
		named[m.Name] = s.add(m)
	}
	// Fleet workers are threads of their own that outlive the timed
	// phase (they poll until Done reaches them, or are canceled), so
	// their spans are roots beside the repetition's.
	workers := map[string]int{}
	for _, w := range r.workerSpans {
		workers[w.Lane] = s.add(w)
	}

	lookups := map[string]int{} // job key -> lookup span
	posts := map[string]int{}   // job key -> post span
	laneOf := map[string]string{}
	for _, j := range t.jobs {
		parent := named["sweep.run"]
		phaseLane := "w"
		if t.fleet {
			parent = workers[j.lane]
			phaseLane = j.lane
		}
		start, end := r.ns(j.start), r.ns(j.end)
		job := s.add(span{Name: "sweep.job", Parent: parent, Lane: j.lane, Key: j.key, Start: start, End: end})
		laneOf[j.key] = j.lane
		pl := r.phases[phaseLane][j.key]
		runStart := end
		if pl != nil {
			runStart = min(r.ns(pl.start), end)
		}
		lookup := s.add(span{Name: "sweep.lookup", Parent: job, Lane: j.lane, Key: j.key, Start: start, End: runStart})
		lookups[j.key] = lookup
		if g := j.stages.Generate.Nanoseconds(); g > 0 {
			s.add(span{Name: "hgraph.gen", Parent: lookup, Lane: j.lane, Key: j.key,
				Start: start, End: min(start+g, runStart), Derived: true})
		}
		if l := j.stages.DiskLoad.Nanoseconds(); l > 0 {
			s.add(span{Name: "graphio.load", Parent: lookup, Lane: j.lane, Key: j.key,
				Start: start, End: min(start+l, runStart), Derived: true})
		}
		if pl == nil {
			continue
		}
		runEnd := min(runStart+j.stages.Run.Nanoseconds(), end)
		run := s.add(span{Name: "core.run", Parent: job, Lane: j.lane, Key: j.key, Start: runStart, End: runEnd})
		prev := runStart
		for _, e := range pl.ends {
			at := min(max(r.ns(e), prev), runEnd)
			s.add(span{Name: "core.phase", Parent: run, Lane: j.lane, Key: j.key, Start: prev, End: at})
			prev = at
		}
		posts[j.key] = s.add(span{Name: "sweep.post", Parent: job, Lane: j.lane, Key: j.key, Start: runEnd, End: end})
	}

	var completes []int
	reports := map[string][]int{} // worker -> report spans
	for _, e := range r.rpc {
		sp := span{Name: "sweepd.rpc." + e.endpoint, Parent: workers[e.worker],
			Start: r.ns(e.start), End: r.ns(e.end)}
		if e.endpoint == "claim" || e.endpoint == "complete" {
			// The worker's claim loop blocks on these; heartbeats and
			// reports run beside the job thread.
			sp.Lane = e.worker
		}
		id := s.add(sp)
		switch e.endpoint {
		case "complete":
			completes = append(completes, id)
		case "report":
			reports[e.worker] = append(reports[e.worker], id)
		}
	}

	for _, e := range r.io {
		a, b := r.ns(e.start), r.ns(e.end)
		// Unattributed operations stay roots off the thread budget.
		sp := span{Name: e.kind, Start: a, End: b, Key: e.key}
		switch e.kind {
		case "store.append":
			if p, ok := posts[e.key]; ok && !t.fleet && s.within(p, a, b) {
				sp.Parent, sp.Lane = p, laneOf[e.key]
			}
			for _, p := range reports[laneOf[e.key]] {
				if s.within(p, a, b) {
					sp.Parent = p
				}
			}
		case "store.fsync":
			if c, ok := named["store.close"]; ok && s.within(c, a, b) {
				sp.Parent, sp.Lane = c, "main"
			}
			for _, c := range completes {
				if s.within(c, a, b) {
					sp.Parent, sp.Lane = c, s.get(c).Lane
				}
			}
		case "graphio.save":
			for _, k := range t.nets[e.net] {
				if l, ok := lookups[k]; ok && s.within(l, a, b) {
					sp.Parent, sp.Lane, sp.Key = l, laneOf[k], k
				}
			}
		}
		s.add(sp)
	}
	return s
}

// selfTimes returns each span's duration minus the part of it covered
// by its children, with every span clipped to [0, limit].
func (s *spanSet) selfTimes(limit int64) []int64 {
	clip := func(sp span) (int64, int64) {
		return min(max(sp.Start, 0), limit), min(max(sp.End, 0), limit)
	}
	kids := make([][][2]int64, len(s.spans)+1)
	for _, sp := range s.spans {
		if sp.Parent > 0 {
			a, b := clip(sp)
			kids[sp.Parent] = append(kids[sp.Parent], [2]int64{a, b})
		}
	}
	self := make([]int64, len(s.spans))
	for i, sp := range s.spans {
		a, b := clip(sp)
		self[i] = (b - a) - covered(kids[sp.ID], a, b)
	}
	return self
}

// covered is the length of the union of ivs inside [a, b].
func covered(ivs [][2]int64, a, b int64) int64 {
	if len(ivs) == 0 || b <= a {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur0, cur1 := int64(-1), int64(-1)
	for _, iv := range ivs {
		lo, hi := max(iv[0], a), min(iv[1], b)
		if hi <= lo {
			continue
		}
		if lo > cur1 {
			total += cur1 - cur0
			cur0, cur1 = lo, hi
		} else if hi > cur1 {
			cur1 = hi
		}
	}
	return total + cur1 - cur0
}

// layerInput is what one traced repetition hands the span assembler and
// the per-layer metrics.
type layerInput struct {
	rep       int
	set       *spanSet
	wall      time.Duration
	threads   int
	jobs      []jobRecord
	workerReg []*obs.Registry // registries job execution reported into
	fleet     bool
	// nets maps canonical network params to the keys of the jobs that
	// run on them, so a topology save can be attributed to its job.
	nets      map[hgraph.Params][]string
	loadBytes int64         // computed: blob sizes of disk-tier loads
	distinct  int           // fleet: distinct topologies in the grid
	late      int           // fleet workers still running after the grace
	doneAt    time.Duration // fleet: coordinator Done, since the timed phase began
	rec       *recorder
}

// layerMetrics computes one traced repetition's per-layer values (all
// but the run-level allocation and overhead figures).
func layerMetrics(in layerInput) map[string]float64 {
	m := map[string]float64{}
	s := in.set
	wallNS := in.wall.Nanoseconds()
	budget := float64(wallNS) * float64(in.threads)
	const ms = 1e6

	total := map[string]int64{}
	var runDurs []float64
	for _, sp := range s.spans {
		total[sp.Name] += sp.dur()
		if sp.Name == "core.run" {
			runDurs = append(runDurs, float64(sp.dur())/ms)
		}
	}
	var accounted int64
	for i, self := range s.selfTimes(wallNS) {
		sp := s.spans[i]
		if sp.Lane != "" && !containers[sp.Name] {
			accounted += self
		}
	}
	m["trace.unaccounted_frac"] = 1 - float64(accounted)/budget
	m["sweep.idle_frac"] = 1 - float64(total["sweep.job"])/budget

	m["sweep.expand_ms"] = float64(total["sweep.expand"]) / ms
	m["sweep.lookup_ms"] = float64(total["sweep.lookup"]) / ms
	m["sweep.post_ms"] = float64(total["sweep.post"]) / ms
	m["sweep.render_ms"] = float64(total["sweep.render"]) / ms
	m["hgraph.gen_ms"] = float64(total["hgraph.gen"]) / ms
	m["graphio.save_ms"] = float64(total["graphio.save"]) / ms
	m["graphio.load_ms"] = float64(total["graphio.load"]) / ms
	m["core.run_ms"] = float64(total["core.run"]) / ms
	m["core.run_ms_p50"] = quantile(runDurs, 0.5)
	m["core.phase_ms"] = float64(total["core.phase"]) / ms
	m["store.append_ms"] = float64(total["store.append"]) / ms
	m["store.fsync_ms"] = float64(total["store.fsync"]) / ms

	gens := 0
	for _, j := range in.jobs {
		if j.tier == "gen" {
			gens++
		}
	}
	m["sweep.cache.gen"] = float64(gens)

	var saveBytes, storeBytes, appends, fsyncs int64
	for _, e := range in.rec.io {
		switch e.kind {
		case "graphio.save":
			saveBytes += e.bytes
		case "store.append":
			storeBytes += e.bytes
			appends++
		case "store.fsync":
			fsyncs++
		}
	}
	m["graphio.save_mb"] = float64(saveBytes) / 1e6
	m["graphio.load_mb"] = float64(in.loadBytes) / 1e6
	m["store.appends"] = float64(appends)
	m["store.bytes"] = float64(storeBytes)
	m["store.fsyncs"] = float64(fsyncs)

	sum := func(regs []*obs.Registry, name string) int64 {
		var v int64
		for _, r := range regs {
			snap := r.Snapshot()
			v += snap.Counters[name] + snap.Timers[name].Count
		}
		return v
	}
	regs := in.workerReg
	m["sweep.cache.mem_hits"] = float64(sum(regs, "sweep.cache.mem_hits"))
	m["sweep.cache.disk_hits"] = float64(sum(regs, "sweep.cache.disk_hits"))
	m["sweep.cache.coalesced"] = float64(sum(regs, "sweep.cache.coalesced"))
	m["hgraph.gen_count"] = float64(sum(regs, "hgraph.gen"))
	m["core.runs"] = float64(sum(regs, "core.runs"))
	m["core.rounds"] = float64(sum(regs, "core.rounds"))
	msgs := sum(regs, "core.messages")
	m["core.messages"] = float64(msgs)
	m["core.bits"] = float64(sum(regs, "core.bits"))
	if msgs > 0 {
		m["core.ns_per_message"] = float64(total["core.run"]) / float64(msgs)
	}

	// Fleet layer. Every value is zero in a single process.
	byEndpoint := map[string][]float64{}
	for _, e := range in.rec.rpc {
		byEndpoint[e.endpoint] = append(byEndpoint[e.endpoint], float64(e.end.Sub(e.start).Nanoseconds())/ms)
	}
	for _, ep := range rpcEndpoints {
		d := byEndpoint[ep]
		var tot float64
		for _, v := range d {
			tot += v
		}
		m["sweepd.rpc."+ep+".count"] = float64(len(d))
		m["sweepd.rpc."+ep+".ms_p50"] = quantile(d, 0.5)
		m["sweepd.rpc."+ep+".ms_total"] = tot
	}
	m["sweepd.rpc.retries"] = float64(sum(regs, "sweepd.client.retries"))
	var errs, empty int
	var idle time.Duration
	firstIdle := time.Duration(-1)
	last := map[string]rpcEvent{} // worker -> last claim-loop call
	for _, e := range in.rec.rpc {
		if e.failed {
			errs++
		}
		if e.endpoint != "claim" && e.endpoint != "complete" {
			continue
		}
		if prev, ok := last[e.worker]; ok && prev.claim == "empty" {
			idle += e.start.Sub(prev.end)
		}
		last[e.worker] = e
		if e.claim == "empty" || e.claim == "done" {
			at := e.end.Sub(in.rec.origin)
			if e.claim == "empty" {
				empty++
			}
			if at <= in.doneAt && (firstIdle < 0 || at < firstIdle) {
				firstIdle = at
			}
		}
	}
	m["sweepd.rpc.errors"] = float64(errs)
	m["sweepd.claims_empty"] = float64(empty)
	m["sweepd.worker_idle_ms"] = float64(idle.Nanoseconds()) / ms
	if firstIdle >= 0 {
		m["sweepd.tail_ms"] = float64((in.doneAt - firstIdle).Nanoseconds()) / ms
	}
	if in.fleet {
		m["sweepd.topo_loads_per_distinct"] = float64(sum(regs, "sweep.cache.mem_misses")) / float64(in.distinct)
	}
	m["sweepd.worker_exit_late"] = float64(in.late)
	return m
}

var rpcEndpoints = []string{"claim", "heartbeat", "report", "complete"}
