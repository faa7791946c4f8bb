package sweepd

// chaos_test.go is the randomized fault-schedule property suite the
// whole robustness layer answers to: for any seeded schedule of
// dropped, delayed, duplicated, and truncated coordinator calls — and
// for a coordinator crash-and-restart mid-sweep — the merged store and
// the rendered aggregates must stay byte-identical to a clean
// single-process run. Faults come from chaos.Transport on each worker's
// HTTP client; recovery comes from the machinery under test: client
// retries, lease TTL reassignment, epoch fencing, dedup by content key,
// and the journal. CHAOS_SEEDS widens the schedule sweep in CI.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// chaosSeeds returns the fault-schedule seeds to sweep: 1..3 by
// default, 1..$CHAOS_SEEDS when set (the CI chaos job widens it).
func chaosSeeds(t *testing.T) []uint64 {
	n := 3
	if env := os.Getenv("CHAOS_SEEDS"); env != "" {
		v, err := strconv.Atoi(env)
		if err != nil || v < 1 {
			t.Fatalf("CHAOS_SEEDS=%q: want a positive integer", env)
		}
		n = v
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	return seeds
}

// chaosPlan is the standard mixed-fault schedule: every fault kind on,
// rates high enough that a run of the 16-job grid injects dozens of
// faults, low enough that retries converge fast.
func chaosPlan(seed uint64) chaos.NetPlan {
	return chaos.NetPlan{
		Seed:             seed,
		DropRequest:      0.05,
		DropResponse:     0.05,
		Delay:            0.20,
		DupRequest:       0.05,
		TruncateRequest:  0.03,
		TruncateResponse: 0.05,
		MaxDelay:         10 * time.Millisecond,
	}
}

// chaosWorker builds a worker whose every coordinator call runs through
// a fault-injecting transport. An optional outcome hook makes the
// worker a controllable straggler (see runStragglerFleet).
func chaosWorker(url, name string, seed uint64, onOutcome ...func(sweep.Outcome)) (*Worker, *chaos.Transport) {
	tr := &chaos.Transport{Plan: chaosPlan(seed)}
	o := WorkerOptions{
		Coordinator: url,
		Name:        name,
		Opts:        sweep.Options{Workers: 2},
		Client:      &http.Client{Transport: tr},
		Retries:     4,
		Backoff:     5 * time.Millisecond,
		Poll:        20 * time.Millisecond,
		CallTimeout: 10 * time.Second,
		MaxOffline:  -1, // the coordinator is alive (or restarting): poll through
	}
	if len(onOutcome) > 0 {
		o.OnOutcome = onOutcome[0]
	}
	return NewWorker(o), tr
}

// runChaosFleet keeps n chaos workers running — respawning any that
// exits early — until stop() reports the sweep is over.
func runChaosFleet(ctx context.Context, t *testing.T, url string, n int, seed uint64, stop func() bool) []*chaos.Transport {
	t.Helper()
	var mu sync.Mutex
	var transports []*chaos.Transport
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for gen := 0; !stop() && ctx.Err() == nil; gen++ {
				w, tr := chaosWorker(url, fmt.Sprintf("w%d.%d", i, gen), seed*100+uint64(i*10+gen))
				mu.Lock()
				transports = append(transports, tr)
				mu.Unlock()
				if err := w.Run(ctx); err != nil && ctx.Err() == nil && !stop() {
					t.Logf("worker w%d.%d exited early (%v), respawning", i, gen, err)
				}
			}
		}(i)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	return transports
}

// totalFaults sums injected faults across a fleet's transports.
func totalFaults(transports []*chaos.Transport) int64 {
	var n int64
	for _, tr := range transports {
		for _, v := range tr.Counts() {
			n += v
		}
	}
	return n
}

// TestChaosNetworkFaultsByteIdentical is the headline property over
// network faults alone: for each seeded schedule, a 3-worker fleet
// behind fault-injecting transports reproduces the single-process
// outcomes and aggregates byte for byte.
func TestChaosNetworkFaultsByteIdentical(t *testing.T) {
	jobs := testJobs(t)
	baseOuts, baseMD := baseline(t, jobs)

	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			store, err := sweep.OpenStore(filepath.Join(t.TempDir(), "results.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			coord, err := NewCoordinator(jobs, Config{
				Name:  "dist",
				Store: store,
				// Several shards and a short real TTL: dropped acks and
				// abandoned shards must actually reassign within the
				// test's lifetime.
				Shards:    4,
				LeaseTTL:  1500 * time.Millisecond,
				Telemetry: obs.NewRegistry(),
			})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(coord.Handler())
			defer srv.Close()

			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			transports := runChaosFleet(ctx, t, srv.URL, 3, seed, coord.Finished)
			if ctx.Err() != nil {
				t.Fatalf("fleet did not converge under schedule %d", seed)
			}
			if !coord.Finished() {
				t.Fatal("workers drained but coordinator not finished")
			}
			if n := totalFaults(transports); n == 0 {
				t.Fatalf("schedule %d injected no faults — the property is vacuous", seed)
			} else {
				t.Logf("schedule %d: %d faults injected, store=%d records", seed, n, store.Len())
			}

			outs := coord.Outcomes()
			if md := sweep.Markdown("Sweep dist", sweep.Aggregate(outs)); md != baseMD {
				t.Fatalf("aggregates diverged from clean run under schedule %d:\n%s\nvs\n%s", seed, md, baseMD)
			}
			for i := range outs {
				if !reflect.DeepEqual(outs[i].Summary, baseOuts[i].Summary) {
					t.Fatalf("schedule %d: job %d summary diverged", seed, i)
				}
			}
			// Store parity: every job's record present and matching.
			for i, j := range jobs {
				rec, ok := store.Lookup(j.Key())
				if !ok {
					t.Fatalf("schedule %d: store missing record for job %d", seed, i)
				}
				if !reflect.DeepEqual(rec.Summary, baseOuts[i].Summary) {
					t.Fatalf("schedule %d: stored summary for job %d diverged", seed, i)
				}
			}
		})
	}
}

// TestChaosCoordinatorCrashRestart is the crash-recovery property end
// to end: the coordinator is killed mid-sweep (listener torn down, no
// graceful close, store left unsynced) while chaos workers hammer it,
// a successor reboots from the same store and journal on the same
// address, fences the old epoch, and the finished sweep is still
// byte-identical to the clean run.
func TestChaosCoordinatorCrashRestart(t *testing.T) {
	jobs := testJobs(t)
	baseOuts, baseMD := baseline(t, jobs)
	dir := t.TempDir()
	storePath := filepath.Join(dir, "results.jsonl")
	journalPath := filepath.Join(dir, "sweep.journal")

	boot := func(addr string) (*Coordinator, *Journal, *sweep.Store, net.Listener) {
		t.Helper()
		store, err := sweep.OpenStore(storePath)
		if err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(journalPath)
		if err != nil {
			t.Fatal(err)
		}
		coord, err := NewCoordinator(jobs, Config{
			Name: "dist", Store: store, Shards: 4, Journal: j,
			LeaseTTL: 1500 * time.Millisecond, Telemetry: obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		// The successor rebinds the predecessor's address so live
		// workers rejoin without reconfiguration. The port can linger
		// briefly after the old listener closes; retry the bind.
		var ln net.Listener
		deadline := time.Now().Add(10 * time.Second)
		for {
			ln, err = net.Listen("tcp", addr)
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("rebind %s: %v", addr, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
		return coord, j, store, ln
	}

	c1, j1, store1, ln1 := boot("127.0.0.1:0")
	if j1.Epoch != 1 {
		t.Fatalf("first boot epoch = %d, want 1", j1.Epoch)
	}
	addr := ln1.Addr().String()
	srv1 := &http.Server{Handler: c1.Handler()}
	go srv1.Serve(ln1)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	var phase2 func() bool // set after the restart; nil-safe via closure
	var mu sync.Mutex
	stop := func() bool {
		mu.Lock()
		f := phase2
		mu.Unlock()
		return f != nil && f()
	}
	fleetDone := make(chan []*chaos.Transport, 1)
	go func() { fleetDone <- runChaosFleet(ctx, t, "http://"+addr, 3, 42, stop) }()

	// Let the fleet make real progress, then pull the plug.
	for deadline := time.Now().Add(time.Minute); ; {
		if c1.Status().Shards.RecordsAccepted >= 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fleet made no progress before planned crash")
		}
		time.Sleep(10 * time.Millisecond)
	}
	srv1.Close() // crash: in-flight calls die, no handover, no store close
	// Give the dying handlers a beat so the successor's store open does
	// not interleave with their final appends (a cross-process kill -9 —
	// the CI smoke — has no such window and relies on the torn-line
	// repair instead).
	time.Sleep(50 * time.Millisecond)

	c2, j2, store2, ln2 := boot(addr)
	defer store2.Close()
	if j2.Epoch != 2 {
		t.Fatalf("post-crash boot epoch = %d, want 2", j2.Epoch)
	}
	if got := c2.Status().Epoch; got != 2 {
		t.Fatalf("successor /status epoch = %d, want 2", got)
	}
	if c2.Status().Sweep.Done == 0 {
		t.Fatal("successor resumed nothing from the crashed store")
	}
	srv2 := &http.Server{Handler: c2.Handler()}
	go srv2.Serve(ln2)
	defer srv2.Close()
	mu.Lock()
	phase2 = c2.Finished
	mu.Unlock()

	select {
	case <-c2.Done():
	case <-ctx.Done():
		t.Fatal("sweep did not finish after coordinator restart")
	}
	transports := <-fleetDone
	if n := totalFaults(transports); n == 0 {
		t.Fatal("crash run injected no network faults — weaken nothing, fix the plan")
	}

	// Byte identity against the clean run, with the outcome set stitched
	// from both incarnations: records accepted before the crash arrive
	// as store resumes, the rest were recomputed under epoch 2.
	outs := c2.Outcomes()
	if md := sweep.Markdown("Sweep dist", sweep.Aggregate(outs)); md != baseMD {
		t.Fatalf("aggregates diverged across coordinator crash:\n%s\nvs\n%s", md, baseMD)
	}
	for i := range outs {
		if !reflect.DeepEqual(outs[i].Summary, baseOuts[i].Summary) {
			t.Fatalf("job %d summary diverged across coordinator crash", i)
		}
	}
	for i, j := range jobs {
		rec, ok := store2.Lookup(j.Key())
		if !ok {
			t.Fatalf("store missing record for job %d after crash recovery", i)
		}
		if !reflect.DeepEqual(rec.Summary, baseOuts[i].Summary) {
			t.Fatalf("stored summary for job %d diverged across crash", i)
		}
	}
	_ = store1 // deliberately never closed: the crash dropped it
}

// runStragglerFleet runs n chaos workers until stop(); worker 0 is a
// straggler whose first finished job stalls the scheduler's serial
// progress callback for stall — its shard keeps heartbeating (the lease
// stays live) while reporting nothing. stalled reports whether the
// stall actually fired.
func runStragglerFleet(ctx context.Context, t *testing.T, url string, n int, seed uint64, stall time.Duration, stop func() bool) (transports []*chaos.Transport, stalled bool) {
	t.Helper()
	var stallOnce sync.Once
	stallFirst := func(sweep.Outcome) {
		stallOnce.Do(func() {
			stalled = true
			select {
			case <-time.After(stall):
			case <-ctx.Done():
			}
		})
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for gen := 0; !stop() && ctx.Err() == nil; gen++ {
				var hook func(sweep.Outcome)
				if i == 0 {
					hook = stallFirst
				}
				w, tr := chaosWorker(url, fmt.Sprintf("w%d.%d", i, gen), seed*100+uint64(i*10+gen), hook)
				mu.Lock()
				transports = append(transports, tr)
				mu.Unlock()
				if err := w.Run(ctx); err != nil && ctx.Err() == nil && !stop() {
					t.Logf("worker w%d.%d exited early (%v), respawning", i, gen, err)
				}
			}
		}(i)
	}
	wg.Wait()
	return transports, stalled
}

// TestChaosStragglerByteIdentical: with a straggler pinning its shard
// under a live lease — the lease TTL is a minute, so expiry-based
// reassignment cannot be what saves the sweep — a fleet with at least
// four shards per worker must finish around it, and the finished sweep
// must still be byte-identical to a clean single-process run. The rest
// of the fleet drains the other shards while the straggler stalls; no
// shard ever moves between live workers. Non-vacuity is asserted: the
// stall fired and the transports injected faults.
func TestChaosStragglerByteIdentical(t *testing.T) {
	jobs := testJobs(t)
	baseOuts, baseMD := baseline(t, jobs)

	const fleet = 3
	store, err := sweep.OpenStore(filepath.Join(t.TempDir(), "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	coord, err := NewCoordinator(jobs, Config{
		Name: "dist", Store: store, Shards: 4 * fleet,
		LeaseTTL: time.Minute, Telemetry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	transports, stalled := runStragglerFleet(ctx, t, srv.URL, fleet, 7, 2*time.Second, coord.Finished)
	if ctx.Err() != nil {
		t.Fatal("fleet did not converge around the straggler")
	}
	if !coord.Finished() {
		t.Fatal("workers drained but coordinator not finished")
	}
	if !stalled {
		t.Fatal("the straggler never stalled — the property is vacuous")
	}
	if n := totalFaults(transports); n == 0 {
		t.Fatal("straggler run injected no network faults — the property is vacuous")
	}

	outs := coord.Outcomes()
	if md := sweep.Markdown("Sweep dist", sweep.Aggregate(outs)); md != baseMD {
		t.Fatalf("aggregates diverged from clean run around a straggler:\n%s\nvs\n%s", md, baseMD)
	}
	for i := range outs {
		if !reflect.DeepEqual(outs[i].Summary, baseOuts[i].Summary) {
			t.Fatalf("job %d summary diverged around a straggler", i)
		}
	}
	for i, j := range jobs {
		rec, ok := store.Lookup(j.Key())
		if !ok {
			t.Fatalf("store missing record for job %d", i)
		}
		if !reflect.DeepEqual(rec.Summary, baseOuts[i].Summary) {
			t.Fatalf("stored summary for job %d diverged", i)
		}
	}
}
