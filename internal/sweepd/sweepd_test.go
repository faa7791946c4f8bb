package sweepd

// The package's one invariant, tested end to end: a sharded fleet's
// aggregates are byte-identical to a single-process sweep of the same
// grid — for any shard count, any worker count, and across a worker
// death mid-shard (with the dead worker's partial results deduplicated,
// not recomputed into divergence). The coordinator runs over
// net/http/httptest; workers are real Worker loops; the dead worker is
// simulated by hand so the test controls exactly what it reported
// before "dying", and lease expiry rides the injected clock.

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

func testJobs(t *testing.T) []sweep.Job {
	t.Helper()
	spec := sweep.Spec{
		Name:        "dist",
		Sizes:       []int{64, 128},
		Deltas:      []float64{0, 0.75},
		Adversaries: []string{"none", "inflate"},
		Trials:      2,
		Seed:        7,
	}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// baseline runs the grid single-process and returns its outcomes and
// rendered aggregates — the byte-identity reference.
func baseline(t *testing.T, jobs []sweep.Job) ([]sweep.Outcome, string) {
	t.Helper()
	outs, err := sweep.Run(jobs, sweep.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	return outs, sweep.Markdown("Sweep dist", sweep.Aggregate(outs))
}

// summariesByKey indexes a single-process run's results, so
// hand-driven workers can "compute" a job by lookup.
func summariesByKey(t *testing.T, outs []sweep.Outcome) map[string]sweep.Record {
	t.Helper()
	recs := make(map[string]sweep.Record, len(outs))
	for _, o := range outs {
		recs[o.Job.Key()] = sweep.Record{Key: o.Job.Key(), Job: o.Job, Summary: o.Summary}
	}
	return recs
}

// runFleet drives a coordinator over httptest with n concurrent workers
// until the sweep completes, and returns the coordinator for
// inspection.
func runFleet(t *testing.T, coord *Coordinator, workers int) {
	t.Helper()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		w := NewWorker(WorkerOptions{
			Coordinator: srv.URL,
			Name:        string(rune('a' + i)),
			Opts:        sweep.Options{Workers: 2},
			Poll:        20 * time.Millisecond,
		})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.Run(ctx)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if !coord.Finished() {
		t.Fatal("fleet drained but coordinator not finished")
	}
}

// TestShardedAggregatesByteIdentical is the headline invariance matrix:
// shard counts 1, 2, 4 × worker counts 1, 2 all reproduce the
// single-process aggregates byte for byte, and every per-job Summary
// matches exactly.
func TestShardedAggregatesByteIdentical(t *testing.T) {
	jobs := testJobs(t)
	baseOuts, baseMD := baseline(t, jobs)

	for _, tc := range []struct{ shards, workers int }{
		{1, 1}, {2, 2}, {4, 2},
	} {
		store, err := sweep.OpenStore(t.TempDir() + "/results.jsonl")
		if err != nil {
			t.Fatal(err)
		}
		coord, err := NewCoordinator(jobs, Config{
			Name:      "dist",
			Store:     store,
			Shards:    tc.shards,
			LeaseTTL:  time.Minute,
			Telemetry: obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		runFleet(t, coord, tc.workers)

		outs := coord.Outcomes()
		if md := sweep.Markdown("Sweep dist", sweep.Aggregate(outs)); md != baseMD {
			t.Fatalf("shards=%d workers=%d: aggregates diverged from single-process run:\n%s\nvs\n%s",
				tc.shards, tc.workers, md, baseMD)
		}
		for i := range outs {
			if !reflect.DeepEqual(outs[i].Summary, baseOuts[i].Summary) {
				t.Fatalf("shards=%d workers=%d: job %d summary diverged", tc.shards, tc.workers, i)
			}
		}
		if n := store.Len(); n != len(jobs) {
			t.Fatalf("shards=%d workers=%d: store holds %d records, want %d", tc.shards, tc.workers, n, len(jobs))
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWorkerDeathMidShard kills a worker after it reported part of a
// shard: the lease expires (fake clock), the shard reassigns, the
// replacements recompute only the unreported jobs, the dead worker's
// re-sent records count as duplicates — and the aggregates still match
// the single-process run byte for byte.
func TestWorkerDeathMidShard(t *testing.T) {
	jobs := testJobs(t)
	baseOuts, baseMD := baseline(t, jobs)

	clk := newFakeClock()
	reg := obs.NewRegistry()
	store, err := sweep.OpenStore(t.TempDir() + "/results.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ttl := time.Minute
	coord, err := NewCoordinator(jobs, Config{
		Name:      "dist",
		Store:     store,
		Shards:    4,
		LeaseTTL:  ttl,
		Telemetry: reg,
		clock:     clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The doomed worker claims a shard, computes and reports exactly one
	// job, re-sends the same report (a retry after a flaky ack), then
	// goes silent forever.
	resp := coord.claim("doomed")
	if resp.Shard == nil {
		t.Fatal("doomed worker got no shard")
	}
	shard := resp.Shard
	firstJob := shard.Jobs[0]
	partial, err := sweep.Run([]sweep.Job{firstJob}, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	report := ReportRequest{
		Worker: "doomed", Shard: shard.ID, Lease: shard.Lease,
		Records: []sweep.Record{{
			Key: firstJob.Key(), Job: firstJob, Summary: partial[0].Summary,
		}},
	}
	if rr, err := coord.report(report); err != nil || rr.Accepted != 1 {
		t.Fatalf("first report = (%+v, %v), want 1 accepted", rr, err)
	}
	if rr, err := coord.report(report); err != nil || rr.Duplicates != 1 {
		t.Fatalf("duplicate report = (%+v, %v), want 1 duplicate", rr, err)
	}

	// Death: no heartbeats past the TTL. The survivors' clocks are the
	// same fake — static from here on, so their own leases never lapse.
	clk.Advance(ttl + time.Second)

	runFleet(t, coord, 2)

	outs := coord.Outcomes()
	if md := sweep.Markdown("Sweep dist", sweep.Aggregate(outs)); md != baseMD {
		t.Fatalf("aggregates diverged after worker death:\n%s\nvs\n%s", md, baseMD)
	}
	for i := range outs {
		if !reflect.DeepEqual(outs[i].Summary, baseOuts[i].Summary) {
			t.Fatalf("job %d summary diverged after worker death", i)
		}
	}
	if n := store.Len(); n != len(jobs) {
		t.Fatalf("store holds %d records, want %d (no duplicate appends)", n, len(jobs))
	}

	snap := reg.Snapshot()
	if snap.Counters["sweepd.shards.reassigned"] < 1 {
		t.Fatalf("no reassignment recorded: %+v", snap.Counters)
	}
	if snap.Counters["sweepd.records.duplicate"] < 1 {
		t.Fatalf("no duplicate recorded: %+v", snap.Counters)
	}
	st := coord.Status()
	if st.Shards.Completed != st.Shards.Total {
		t.Fatalf("shard tally = %+v, want all completed", st.Shards)
	}
}

// TestCoordinatorResume re-opens a completed sweep's store: every job
// resolves as a store hit, the coordinator is born finished, no worker
// ever runs, and the aggregates still match byte for byte.
func TestCoordinatorResume(t *testing.T) {
	jobs := testJobs(t)
	_, baseMD := baseline(t, jobs)

	dir := t.TempDir()
	store, err := sweep.OpenStore(dir + "/results.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(jobs, Config{
		Name: "dist", Store: store, Shards: 2, Telemetry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	runFleet(t, coord, 1)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := sweep.OpenStore(dir + "/results.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	coord2, err := NewCoordinator(jobs, Config{
		Name: "dist", Store: store2, Shards: 2, Telemetry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-coord2.Done():
	default:
		t.Fatal("fully resumed coordinator not born finished")
	}
	outs := coord2.Outcomes()
	for i, o := range outs {
		if !o.FromStore {
			t.Fatalf("job %d not resumed from store", i)
		}
	}
	if md := sweep.Markdown("Sweep dist", sweep.Aggregate(outs)); md != baseMD {
		t.Fatal("resumed aggregates diverged")
	}
}

// TestPartitionByKey pins the sharding function: every pending index
// appears in exactly one shard, shards are internally in expansion
// order, no shard is empty, and the split is stable across calls.
func TestPartitionByKey(t *testing.T) {
	jobs := testJobs(t)
	pending := make([]int, len(jobs))
	for i := range pending {
		pending[i] = i
	}
	for _, shards := range []int{1, 3, 4, 100} {
		parts := sweep.PartitionByKey(jobs, pending, shards)
		if len(parts) > shards {
			t.Fatalf("shards=%d: got %d parts", shards, len(parts))
		}
		seen := map[int]bool{}
		for _, part := range parts {
			if len(part) == 0 {
				t.Fatalf("shards=%d: empty shard", shards)
			}
			for k := 1; k < len(part); k++ {
				if part[k-1] >= part[k] {
					t.Fatalf("shards=%d: shard not in expansion order: %v", shards, part)
				}
			}
			for _, i := range part {
				if seen[i] {
					t.Fatalf("shards=%d: index %d in two shards", shards, i)
				}
				seen[i] = true
			}
		}
		if len(seen) != len(pending) {
			t.Fatalf("shards=%d: %d of %d indices covered", shards, len(seen), len(pending))
		}
		again := sweep.PartitionByKey(jobs, pending, shards)
		if !reflect.DeepEqual(parts, again) {
			t.Fatalf("shards=%d: partition not deterministic", shards)
		}
	}
}

// TestCoordinatorLingersUntilIdleWorkersHearDone pins the end-of-sweep
// handshake on a fake clock. Done fires at the last shard completion,
// but the coordinator keeps serving while any worker seen within one
// lease TTL has not yet been answered Done by a claim: a worker that
// was idle when the sweep ended would otherwise find the server gone
// and wait out its offline budget. A worker silent for longer than the
// TTL does not hold the coordinator, one TTL after the finish it stops
// waiting regardless, and an aborted sweep does not wait at all.
func TestCoordinatorLingersUntilIdleWorkersHearDone(t *testing.T) {
	jobs := testJobs(t)
	baseOuts, _ := baseline(t, jobs)
	recs := summariesByKey(t, baseOuts)
	const ttl = 10 * time.Second

	boot := func() (*Coordinator, *fakeClock) {
		t.Helper()
		store, err := sweep.OpenStore(filepath.Join(t.TempDir(), "results.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		clk := newFakeClock()
		c, err := NewCoordinator(jobs, Config{
			Name: "dist", Store: store, Shards: 2, LeaseTTL: ttl,
			Telemetry: obs.NewRegistry(), clock: clk.Now,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c, clk
	}
	// finishShard reports every job of a claimed shard, then completes it.
	finishShard := func(c *Coordinator, worker string, cl ClaimResponse) {
		t.Helper()
		if cl.Shard == nil {
			t.Fatalf("%s's claim = %+v, want a shard", worker, cl)
		}
		req := ReportRequest{Worker: worker, Shard: cl.Shard.ID, Lease: cl.Shard.Lease}
		for _, j := range cl.Shard.Jobs {
			req.Records = append(req.Records, recs[j.Key()])
		}
		if _, err := c.report(req); err != nil {
			t.Fatal(err)
		}
		if err := c.completeShard(worker, cl.Shard.ID, cl.Shard.Lease); err != nil {
			t.Fatal(err)
		}
	}
	lingerReturns := func(c *Coordinator) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		c.Linger(ctx)
		if ctx.Err() != nil {
			t.Fatal("Linger still waiting with nobody left to tell")
		}
	}

	c, clk := boot()
	a, b := c.claim("a"), c.claim("b")
	// ghost polls while both shards are leased, then goes silent.
	if r := c.claim("ghost"); r.Shard != nil || r.Done {
		t.Fatalf("third claim = %+v, want a retry hint", r)
	}
	if c.lingering() {
		t.Fatal("lingering before the sweep finished")
	}
	clk.Advance(5 * time.Second)
	finishShard(c, "a", a)
	finishShard(c, "b", b)
	select {
	case <-c.Done():
	default:
		t.Fatal("Done did not fire at the last shard completion")
	}
	if !c.lingering() {
		t.Fatal("stopped serving before any worker heard Done")
	}
	// ghost was last seen 11 s ago, a and b 6 s ago.
	clk.Advance(6 * time.Second)
	if r := c.claim("a"); !r.Done {
		t.Fatalf("claim after the finish = %+v, want done", r)
	}
	if !c.lingering() {
		t.Fatal("stopped serving before b heard Done")
	}
	c.claim("b")
	if c.lingering() {
		t.Fatal("still serving after every recently seen worker heard Done")
	}
	lingerReturns(c)

	// The bound: nobody is told, and one TTL after the finish the
	// coordinator stops waiting anyway.
	c, clk = boot()
	a, b = c.claim("a"), c.claim("b")
	finishShard(c, "a", a)
	finishShard(c, "b", b)
	clk.Advance(ttl - time.Millisecond)
	if !c.lingering() {
		t.Fatal("stopped serving before the TTL bound with workers untold")
	}
	clk.Advance(time.Millisecond)
	if c.lingering() {
		t.Fatal("still serving one lease TTL after the finish")
	}
	lingerReturns(c)

	// An aborted sweep does not linger.
	c, _ = boot()
	c.claim("a")
	c.Abort()
	if c.lingering() {
		t.Fatal("lingering after an abort")
	}

	// On the real clock, with Linger polling while a live fleet's
	// claims are answered: every worker exits on a Done reply, so Linger
	// returns long before the one-minute TTL.
	store, err := sweep.OpenStore(filepath.Join(t.TempDir(), "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	live, err := NewCoordinator(jobs, Config{
		Name: "dist", Store: store, Shards: 4, LeaseTTL: time.Minute,
		Telemetry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	lingered := make(chan struct{})
	go func() {
		defer close(lingered)
		select {
		case <-live.Done():
			live.Linger(ctx)
		case <-ctx.Done():
		}
	}()
	runFleet(t, live, 2)
	select {
	case <-lingered:
	case <-time.After(5 * time.Second):
		t.Fatal("Linger still waiting after every worker heard Done")
	}
}
