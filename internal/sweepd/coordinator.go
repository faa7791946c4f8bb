package sweepd

// coordinator.go is the server side of the sharding service. A
// Coordinator owns the canonical job list and the one merged store:
// store hits are resolved up front (exactly as sweep.Run does, with the
// same run-log discipline — sweep_start first, then the buffered
// skips), the remainder is partitioned by content-key range
// (sweep.PartitionByKey), and shards are served over HTTP under leases.
// Every record a worker streams back is integrity-checked
// (Key == Job.Key()), deduplicated against the store, appended, and
// folded into the sweep.Monitor — so /status, the run-log, and the
// end-of-sweep breakdown keep working fleet-wide, and the final
// aggregates fold in expansion order from Outcomes just as a
// single-process sweep's do.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// DefaultShards is the shard count when Config leaves it zero: enough
// ranges that a handful of workers stay busy and a death forfeits at
// most one range's progress-in-flight, few enough that claim traffic is
// noise.
const DefaultShards = 8

// DefaultLeaseTTL is the lease horizon when Config leaves it zero.
const DefaultLeaseTTL = 15 * time.Second

// Config parameterizes a Coordinator.
type Config struct {
	// Name labels the sweep (the Monitor's spec name).
	Name string
	// Store is the merged result store (required). The coordinator is
	// its only writer; workers never see it.
	Store *sweep.Store
	// Shards is the number of content-key ranges (0: DefaultShards).
	Shards int
	// LeaseTTL is how long a silent worker keeps a shard before it is
	// reassigned (0: DefaultLeaseTTL).
	LeaseTTL time.Duration
	// RetryMS is the poll hint served when every remaining shard is
	// leased (0: 500).
	RetryMS int64
	// Monitor folds fleet-wide progress (nil: a fresh one over the job
	// list). Its Status is embedded in /status.
	Monitor *sweep.Monitor
	// Telemetry receives the coordinator counters (nil: obs.Default).
	Telemetry *obs.Registry
	// RunLog receives coordinator lifecycle events (nil: disabled).
	RunLog *obs.RunLog
	// Journal is the crash-recovery journal (nil: epoch fencing off, as
	// for an ephemeral in-test coordinator). When set, NewCoordinator
	// bumps its epoch and persists before serving: lease tokens embed
	// the epoch, so tokens from a pre-crash incarnation 409 instead of
	// colliding, and the journal's recorded shard count overrides
	// Config.Shards so a restart re-partitions the remaining keyspace
	// with the original geometry.
	Journal *Journal

	// clock overrides time.Now for lease-expiry tests.
	clock func() time.Time
}

// shardMeta is the coordinator's per-shard progress view, fed by the
// Done/Total fields workers piggyback on heartbeats and reports. It
// exists for observability (/status rows); nothing here affects which
// records are accepted.
type shardMeta struct {
	done       int       // worker-reported jobs finished under the current claim
	total      int       // worker-reported claim size
	lastReport time.Time // last heartbeat/report touching this shard
}

// Coordinator serves shards of one expanded job list and folds the
// fleet's results back into one store and one Outcome list.
type Coordinator struct {
	cfg    Config
	jobs   []sweep.Job
	keyIdx map[string][]int // content key -> job indices (dup keys: all)
	shards [][]int          // shard -> job indices, fixed at boot
	leases *leaseTable
	mon    *sweep.Monitor
	start  time.Time

	mu         sync.Mutex
	meta       []shardMeta
	outs       []sweep.Outcome
	accounted  []bool
	done       int // accounted jobs, store hits included
	resumed    int
	errs       int
	finished   bool
	finishedAt time.Time
	aborted    bool
	told       map[string]bool // workers answered Done
	doneCh     chan struct{}

	served       *obs.Counter // "sweepd.shards.served"
	reassigned   *obs.Counter // "sweepd.shards.reassigned"
	completed    *obs.Counter // "sweepd.shards.completed"
	recAccepted  *obs.Counter // "sweepd.records.accepted"
	recDuplicate *obs.Counter // "sweepd.records.duplicate"
	recRejected  *obs.Counter // "sweepd.records.rejected"
	workersAlive *obs.Gauge   // "sweepd.workers.alive"
}

// now is the coordinator's clock (injectable for tests).
func (c *Coordinator) now() time.Time {
	if c.cfg.clock != nil {
		return c.cfg.clock()
	}
	return time.Now()
}

// NewCoordinator builds a coordinator over jobs. Store hits are
// resolved immediately: their outcomes are final before any worker
// connects, and a coordinator whose store already holds everything is
// born finished.
func NewCoordinator(jobs []sweep.Job, cfg Config) (*Coordinator, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("sweepd: coordinator needs a store")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	// A journaled restart must re-partition with the geometry the first
	// incarnation used, whatever today's flag says: shard indices in
	// workers' still-live claims are meaningless otherwise.
	if cfg.Journal != nil && cfg.Journal.Shards > 0 {
		cfg.Shards = cfg.Journal.Shards
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.RetryMS <= 0 {
		cfg.RetryMS = 500
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = obs.Default
	}
	if cfg.Monitor == nil {
		cfg.Monitor = sweep.NewMonitor(cfg.Name, len(jobs), nil, cfg.Telemetry)
	}

	c := &Coordinator{
		cfg:       cfg,
		jobs:      jobs,
		keyIdx:    make(map[string][]int, len(jobs)),
		mon:       cfg.Monitor,
		start:     time.Now(),
		outs:      make([]sweep.Outcome, len(jobs)),
		accounted: make([]bool, len(jobs)),
		told:      make(map[string]bool),
		doneCh:    make(chan struct{}),

		served:       cfg.Telemetry.Counter("sweepd.shards.served"),
		reassigned:   cfg.Telemetry.Counter("sweepd.shards.reassigned"),
		completed:    cfg.Telemetry.Counter("sweepd.shards.completed"),
		recAccepted:  cfg.Telemetry.Counter("sweepd.records.accepted"),
		recDuplicate: cfg.Telemetry.Counter("sweepd.records.duplicate"),
		recRejected:  cfg.Telemetry.Counter("sweepd.records.rejected"),
		workersAlive: cfg.Telemetry.Gauge("sweepd.workers.alive"),
	}

	// Resolve store hits up front, buffering skip events so the run-log
	// opens with sweep_start (the runner's lifecycle ordering).
	var pending, skipped []int
	for i, j := range jobs {
		key := j.Key()
		c.keyIdx[key] = append(c.keyIdx[key], i)
		if rec, ok := cfg.Store.Lookup(key); ok {
			c.outs[i] = sweep.Outcome{Job: j, Summary: rec.Summary, FromStore: true, Worker: -1}
			c.accounted[i] = true
			c.done++
			c.resumed++
			skipped = append(skipped, i)
			continue
		}
		pending = append(pending, i)
	}
	c.shards = sweep.PartitionByKey(jobs, pending, cfg.Shards)
	boot := c.now()
	c.meta = make([]shardMeta, len(c.shards))
	for i := range c.meta {
		c.meta[i] = shardMeta{lastReport: boot}
	}
	// Fence this incarnation before any lease exists: a failed journal
	// save fails the boot, or a later crash could reuse the epoch and
	// hand a stale worker a colliding token.
	var epoch uint32
	if cfg.Journal != nil {
		if err := cfg.Journal.Bump(cfg.Shards); err != nil {
			return nil, err
		}
		epoch = cfg.Journal.Epoch
	}
	c.leases = newLeaseTable(len(c.shards), cfg.LeaseTTL, cfg.clock, epoch)

	_ = cfg.RunLog.Event("sweep_start", map[string]any{
		"jobs": len(jobs), "pending": len(pending),
		"resumed": len(skipped), "shards": len(c.shards),
		"epoch": epoch,
	})
	for pos, i := range skipped {
		_ = cfg.RunLog.Event("job_skip", map[string]any{
			"key": jobs[i].Key(), "label": jobs[i].Label(),
		})
		c.mon.Observe(pos+1, len(jobs), c.outs[i])
	}
	if len(c.shards) == 0 {
		c.finish()
	}
	return c, nil
}

// Done is closed when every shard is complete (or the coordinator was
// aborted).
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// Finished reports completion without blocking.
func (c *Coordinator) Finished() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.finished
}

// Outcomes returns the outcome list in expansion order. Call after Done
// fires; earlier calls see whatever has been folded so far.
func (c *Coordinator) Outcomes() []sweep.Outcome {
	c.mu.Lock()
	defer c.mu.Unlock()
	outs := make([]sweep.Outcome, len(c.outs))
	copy(outs, c.outs)
	return outs
}

// Errors counts jobs whose workers reported a failure.
func (c *Coordinator) Errors() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.errs
}

// Abort marks the sweep ended without completion: the run-log gets its
// sweep_end with aborted:true and Done fires. In-flight worker calls
// after an abort are answered done, so the fleet drains.
func (c *Coordinator) Abort() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished {
		return
	}
	c.aborted = true
	c.finishLocked()
}

// finish closes out the sweep (all shards complete).
func (c *Coordinator) finish() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.finishLocked()
}

func (c *Coordinator) finishLocked() {
	if c.finished {
		return
	}
	c.finished = true
	c.finishedAt = c.now()
	end := map[string]any{
		"ran": c.done - c.resumed, "resumed": c.resumed, "errors": c.errs,
		"elapsed_ms": float64(time.Since(c.start).Microseconds()) / 1000,
	}
	if c.aborted {
		end["aborted"] = true
	}
	_ = c.cfg.RunLog.Event("sweep_end", end)
	close(c.doneCh)
}

// pendingJobs filters a shard down to jobs not yet accounted — the
// resume semantics a reassigned shard inherits.
func (c *Coordinator) pendingJobs(shard int) []sweep.Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	var jobs []sweep.Job
	for _, i := range c.shards[shard] {
		if !c.accounted[i] {
			jobs = append(jobs, c.jobs[i])
		}
	}
	return jobs
}

// noteProgressLocked folds a worker's piggybacked Done/Total for shard
// into the coordinator's per-shard view; the caller holds c.mu.
func (c *Coordinator) noteProgressLocked(shard, done, total int) {
	if shard < 0 || shard >= len(c.meta) {
		return
	}
	m := &c.meta[shard]
	m.lastReport = c.now()
	if total > 0 {
		m.total = total
	}
	if done > m.done {
		m.done = done
	}
}

// claim implements shard assignment: hand out the first claimable
// shard that still has pending work, auto-completing any claimable
// shard whose jobs were all reported by a previous (dead) owner.
func (c *Coordinator) claim(worker string) ClaimResponse {
	for {
		if c.Finished() || c.leases.Done() {
			return c.answerDone(worker)
		}
		shard, token, reassigned, ok := c.leases.Claim(worker)
		c.workersAlive.Set(int64(c.leases.Alive()))
		if !ok {
			if c.leases.Done() {
				return c.answerDone(worker)
			}
			return ClaimResponse{RetryMS: c.cfg.RetryMS}
		}
		c.served.Inc()
		// A fresh claim resets the shard's progress view: done/total are
		// the claimant's local counts, and staleness starts now.
		c.mu.Lock()
		c.meta[shard] = shardMeta{lastReport: c.now()}
		c.mu.Unlock()
		if reassigned {
			c.reassigned.Inc()
			_ = c.cfg.RunLog.Event("shard_reassign", map[string]any{
				"shard": shard, "worker": worker,
			})
		}
		jobs := c.pendingJobs(shard)
		if len(jobs) == 0 {
			// A previous owner reported everything, then died before
			// completing: nothing to recompute, retire the shard here.
			_ = c.completeShard(worker, shard, token)
			continue
		}
		_ = c.cfg.RunLog.Event("shard_claim", map[string]any{
			"shard": shard, "worker": worker, "jobs": len(jobs),
			"reassigned": reassigned,
		})
		return ClaimResponse{Shard: &ShardClaim{
			ID:      shard,
			Lease:   token,
			LeaseMS: c.cfg.LeaseTTL.Milliseconds(),
			Jobs:    jobs,
		}}
	}
}

// answerDone is every claim's reply once the sweep is over: it closes
// the sweep out if this claim is the first to notice, and records that
// worker has heard, which is what Linger waits for.
func (c *Coordinator) answerDone(worker string) ClaimResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.finishLocked()
	c.told[worker] = true
	return ClaimResponse{Done: true}
}

// lingerPoll is how often Linger re-checks whether every recently seen
// worker has been answered Done.
const lingerPoll = 20 * time.Millisecond

// Linger keeps a finished coordinator's caller waiting — and so its
// HTTP server serving — until every worker heard from within one lease
// TTL has been answered Done by a claim, one lease TTL has passed since
// the sweep finished, or ctx ends. A worker that was idle or polling
// when the last shard completed learns the sweep is over here instead
// of finding the coordinator gone and waiting out its offline budget.
// Done still fires at the last shard completion; Linger returns at once
// before that and after an Abort.
func (c *Coordinator) Linger(ctx context.Context) {
	t := time.NewTicker(lingerPoll)
	defer t.Stop()
	for c.lingering() {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// lingering is Linger's condition, read against the coordinator clock.
func (c *Coordinator) lingering() bool {
	seen := c.leases.Workers()
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.finished || c.aborted || now.Sub(c.finishedAt) >= c.cfg.LeaseTTL {
		return false
	}
	for w, since := range seen {
		if since <= c.cfg.LeaseTTL && !c.told[w] {
			return true
		}
	}
	return false
}

// report folds a worker's streamed results in under its lease.
func (c *Coordinator) report(req ReportRequest) (ReportResponse, error) {
	// A valid report is also a heartbeat.
	if err := c.leases.Renew(req.Worker, req.Shard, req.Lease); err != nil {
		return ReportResponse{}, err
	}
	c.workersAlive.Set(int64(c.leases.Alive()))
	c.mu.Lock()
	c.noteProgressLocked(req.Shard, req.Done, req.Total)
	c.mu.Unlock()
	var resp ReportResponse
	for _, rec := range req.Records {
		idxs, ok := c.keyIdx[rec.Key]
		if !ok || rec.Key != rec.Job.Key() {
			resp.Rejected++
			c.recRejected.Inc()
			continue
		}
		c.mu.Lock()
		var fresh []int
		for _, i := range idxs {
			if !c.accounted[i] {
				fresh = append(fresh, i)
			}
		}
		if len(fresh) == 0 {
			c.mu.Unlock()
			resp.Duplicates++
			c.recDuplicate.Inc()
			continue
		}
		// Persist before accounting: a record the coordinator failed to
		// append stays unaccounted, so its job reassigns rather than
		// silently evaporating from the store.
		if err := c.cfg.Store.Put(rec); err != nil {
			c.mu.Unlock()
			return resp, err
		}
		for _, i := range fresh {
			out := sweep.Outcome{Job: c.jobs[i], Summary: rec.Summary, Worker: -1}
			// The worker's wall clock for the job rides ElapsedMS; fold
			// it into the run stage so the fleet-wide breakdown and
			// /status stay meaningful.
			out.Stages.Run = time.Duration(rec.ElapsedMS * float64(time.Millisecond))
			c.outs[i] = out
			c.accounted[i] = true
			c.done++
			c.mon.Observe(c.done, len(c.jobs), out)
			_ = c.cfg.RunLog.Event("job_done", map[string]any{
				"key": rec.Key, "label": c.jobs[i].Label(),
				"worker": req.Worker, "shard": req.Shard, "ms": rec.ElapsedMS,
			})
		}
		c.mu.Unlock()
		resp.Accepted++
		c.recAccepted.Inc()
	}
	for _, je := range req.Errors {
		idxs, ok := c.keyIdx[je.Key]
		if !ok {
			resp.Rejected++
			c.recRejected.Inc()
			continue
		}
		c.mu.Lock()
		for _, i := range idxs {
			if c.accounted[i] {
				continue
			}
			out := sweep.Outcome{Job: c.jobs[i], Err: errors.New(je.Error), Worker: -1}
			c.outs[i] = out
			c.accounted[i] = true
			c.done++
			c.errs++
			c.mon.Observe(c.done, len(c.jobs), out)
			_ = c.cfg.RunLog.Event("job_done", map[string]any{
				"key": je.Key, "label": c.jobs[i].Label(),
				"worker": req.Worker, "shard": req.Shard, "err": je.Error,
			})
		}
		c.mu.Unlock()
	}
	return resp, nil
}

// completeShard retires a shard under its lease: verify every job is
// accounted, sync the store to stable storage, then ack.
func (c *Coordinator) completeShard(worker string, shard int, token int64) error {
	// Bounds-check before indexing: the shard number came off the wire
	// (FuzzProtocolDecode found the panic this guards against).
	if shard < 0 || shard >= len(c.shards) {
		return fmt.Errorf("%w: shard %d of %d", errNoShard, shard, len(c.shards))
	}
	c.mu.Lock()
	for _, i := range c.shards[shard] {
		if !c.accounted[i] {
			c.mu.Unlock()
			// Served as 409, not 500: a complete for a shard with
			// unreported jobs means the worker's reports were lost (a
			// dropped /report, a coordinator restart) — retrying the
			// complete cannot ever succeed, but abandoning the lease
			// lets the shard reassign and the missing jobs recompute.
			return fmt.Errorf("%w: shard %d incomplete: job %s unreported",
				ErrLeaseLost, shard, c.jobs[i].Label())
		}
	}
	c.mu.Unlock()
	// The durability half of the ack: records this shard reported are on
	// stable storage before the worker is told the shard is done.
	if err := c.cfg.Store.Sync(); err != nil {
		return err
	}
	if err := c.leases.Complete(worker, shard, token); err != nil {
		return err
	}
	c.completed.Inc()
	_ = c.cfg.RunLog.Event("shard_complete", map[string]any{
		"shard": shard, "worker": worker,
	})
	if c.leases.Done() {
		c.finish()
	}
	return nil
}

// ShardTally is the /status shard accounting.
type ShardTally struct {
	Total     int   `json:"total"`
	Pending   int   `json:"pending"`
	Active    int   `json:"active"`
	Completed int   `json:"completed"`
	Served    int64 `json:"served"`
	// Reassigned counts leases handed out for shards a previous worker
	// had held — each one is a survived worker death (or stall).
	Reassigned       int64 `json:"reassigned"`
	RecordsAccepted  int64 `json:"records_accepted"`
	RecordsDuplicate int64 `json:"records_duplicate"`
	RecordsRejected  int64 `json:"records_rejected,omitempty"`
	// Detail is the per-shard progress view: size, accounted remainder,
	// the worker-reported done/total, and last-report age, so a
	// straggling shard is visible before its lease lapses.
	Detail []ShardStatus `json:"detail,omitempty"`
}

// ShardStatus is one shard's /status row.
type ShardStatus struct {
	ID    int    `json:"id"`
	State string `json:"state"` // pending | active | done
	// Worker is the current (or last) lease holder.
	Worker string `json:"worker,omitempty"`
	// Jobs is the shard's job-list length; Remaining counts those not
	// yet accounted coordinator-side.
	Jobs      int `json:"jobs"`
	Remaining int `json:"remaining"`
	// Done/Total echo the lease holder's self-reported progress.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// LastReportMS is the age of the last heartbeat/report touching
	// this shard.
	LastReportMS float64 `json:"last_report_ms"`
}

// WorkerInfo is one worker's liveness row.
type WorkerInfo struct {
	Name string `json:"name"`
	// SinceSeenMS is how long ago the worker last called in; Alive is
	// whether that is within one lease TTL.
	SinceSeenMS float64 `json:"since_seen_ms"`
	Alive       bool    `json:"alive"`
}

// Status is the coordinator's /status document: the familiar sweep
// Monitor document plus the shard and worker view.
type Status struct {
	Sweep  sweep.Status `json:"sweep"`
	Shards ShardTally   `json:"shards"`
	// Epoch is the coordinator's fencing generation: how many times a
	// coordinator has booted against this sweep's journal (0: no
	// journal). A bump between two /status polls is a crash+restart.
	Epoch   uint32       `json:"epoch,omitempty"`
	Workers []WorkerInfo `json:"workers,omitempty"`
	Done    bool         `json:"done"`
	Aborted bool         `json:"aborted,omitempty"`
}

// Status renders the live fleet view.
func (c *Coordinator) Status() Status {
	pending, active, done := c.leases.Counts()
	views := c.leases.View()
	c.workersAlive.Set(int64(c.leases.Alive()))
	now := c.now()

	c.mu.Lock()
	detail := make([]ShardStatus, 0, len(c.shards))
	for i := range c.shards {
		remaining := 0
		for _, j := range c.shards[i] {
			if !c.accounted[j] {
				remaining++
			}
		}
		m := &c.meta[i]
		detail = append(detail, ShardStatus{
			ID:           i,
			State:        views[i].state,
			Worker:       views[i].worker,
			Jobs:         len(c.shards[i]),
			Remaining:    remaining,
			Done:         m.done,
			Total:        m.total,
			LastReportMS: float64(now.Sub(m.lastReport).Microseconds()) / 1000,
		})
	}
	c.mu.Unlock()

	s := Status{
		Sweep: c.mon.Status(),
		Epoch: c.leases.Epoch(),
		Shards: ShardTally{
			Total:            len(c.shards),
			Pending:          pending,
			Active:           active,
			Completed:        done,
			Served:           c.served.Load(),
			Reassigned:       c.reassigned.Load(),
			RecordsAccepted:  c.recAccepted.Load(),
			RecordsDuplicate: c.recDuplicate.Load(),
			RecordsRejected:  c.recRejected.Load(),
			Detail:           detail,
		},
	}
	workers := c.leases.Workers()
	names := make([]string, 0, len(workers))
	for name := range workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		since := workers[name]
		s.Workers = append(s.Workers, WorkerInfo{
			Name:        name,
			SinceSeenMS: float64(since.Microseconds()) / 1000,
			Alive:       since <= c.cfg.LeaseTTL,
		})
	}
	c.mu.Lock()
	s.Done = c.finished
	s.Aborted = c.aborted
	c.mu.Unlock()
	return s
}

// Handler mounts the coordinator's HTTP surface: the lease protocol
// (/claim, /heartbeat, /report, /complete) and the /status document.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/claim", func(w http.ResponseWriter, r *http.Request) {
		var req ClaimRequest
		if !decode(w, r, &req) {
			return
		}
		writeJSON(w, c.claim(req.Worker))
	})
	mux.HandleFunc("/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !decode(w, r, &req) {
			return
		}
		if err := c.leases.Renew(req.Worker, req.Shard, req.Lease); err != nil {
			leaseError(w, err)
			return
		}
		c.workersAlive.Set(int64(c.leases.Alive()))
		c.mu.Lock()
		c.noteProgressLocked(req.Shard, req.Done, req.Total)
		c.mu.Unlock()
		writeJSON(w, OKResponse{OK: true})
	})
	mux.HandleFunc("/report", func(w http.ResponseWriter, r *http.Request) {
		var req ReportRequest
		if !decode(w, r, &req) {
			return
		}
		resp, err := c.report(req)
		if err != nil {
			leaseError(w, err)
			return
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("/complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !decode(w, r, &req) {
			return
		}
		if err := c.completeShard(req.Worker, req.Shard, req.Lease); err != nil {
			leaseError(w, err)
			return
		}
		writeJSON(w, OKResponse{OK: true})
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Status())
	})
	return mux
}

// maxRequestBody bounds any protocol request body. The largest
// legitimate body is a /report batch; at a few hundred bytes per record
// this allows batches far beyond any real shard, while a hostile or
// corrupted Content-Length cannot make the decoder buffer unbounded.
const maxRequestBody = 64 << 20

// decode parses a protocol request body. Anything malformed — wrong
// method, oversized, truncated, or garbled JSON — is answered 4xx,
// never a panic and never a 5xx (FuzzProtocolDecode holds it to that).
func decode(w http.ResponseWriter, r *http.Request, into any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	if err := json.NewDecoder(r.Body).Decode(into); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// leaseError maps lease losses to 409 (the client's abandon signal),
// nonexistent shards to 400 (malformed request, retrying cannot help),
// and everything else to 500 (retryable).
func leaseError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrLeaseLost):
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, errNoShard):
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
