package main

// trace.go records what a traced repetition saw at the seams the
// library's public API already exposes: the run-log writer, a
// core.PhaseObserver, the result store's File hook, the topology
// store's save hook and a timing http.RoundTripper on each fleet
// worker's client. Raw events are kept in memory with absolute times;
// spans (name, start, end, parent, job key) are assembled from them
// after the timed phase (assemble), so tracing costs the hot path one
// time.Now and an append per event.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graphio"
	"repro/internal/hgraph"
	"repro/internal/sweep"
	"repro/internal/sweepd"
)

// span is one traced interval. Times are nanoseconds since the start of
// the repetition's timed phase. Lane names the thread whose time the
// span occupies ("main" or a job thread); spans with an empty lane run
// beside the job threads (asynchronous RPCs, coordinator-side store
// appends) and are not part of the thread-time budget.
type span struct {
	Rep    int    `json:"rep"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Lane   string `json:"lane,omitempty"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Derived marks spans whose duration the program reported (run-log
	// stage times) and whose start is anchored at the enclosing lookup.
	Derived bool `json:"derived,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// containers group other spans; their own time is not a layer.
var containers = map[string]bool{
	"rep": true, "sweep.run": true, "sweepd.fleet": true, "sweepd.worker": true,
}

// logLine is one run-log line as it arrived at the benchmark's writer.
type logLine struct {
	at   time.Time
	line []byte
}

// logTap is the io.Writer handed to obs.NewRunLog. It timestamps every
// line on arrival and keeps a copy; parsing waits until the timed phase
// is over. It runs in traced and untraced repetitions alike, because
// job latencies come from it.
type logTap struct {
	lane string // job-thread lane prefix: "w" in a single process, the worker name in a fleet
	mu   sync.Mutex
	rows []logLine
}

func (t *logTap) Write(p []byte) (int, error) {
	at := time.Now()
	t.mu.Lock()
	t.rows = append(t.rows, logLine{at: at, line: append([]byte(nil), p...)})
	t.mu.Unlock()
	return len(p), nil
}

// runEvent is the part of a run-log line the ledger reads.
type runEvent struct {
	Event  string `json:"event"`
	Fields struct {
		Key    string           `json:"key"`
		Worker int              `json:"worker"`
		Tier   string           `json:"tier"`
		Err    string           `json:"err"`
		Stages sweep.StageTimes `json:"stages"`
	} `json:"fields"`
}

// jobRecord pairs one job's job_start and job_done lines.
type jobRecord struct {
	key        string
	lane       string
	start, end time.Time
	tier       string
	stages     sweep.StageTimes
	err        string
}

// jobs pairs job_start/job_done lines by (worker, key).
func (t *logTap) jobs() []jobRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	type slot struct {
		worker int
		key    string
	}
	open := map[slot]time.Time{}
	var out []jobRecord
	for _, r := range t.rows {
		var ev runEvent
		if json.Unmarshal(r.line, &ev) != nil {
			continue
		}
		s := slot{ev.Fields.Worker, ev.Fields.Key}
		switch ev.Event {
		case "job_start":
			open[s] = r.at
		case "job_done":
			start, ok := open[s]
			if !ok {
				continue
			}
			delete(open, s)
			lane := t.lane
			if lane == "w" {
				lane = "w" + strconv.Itoa(ev.Fields.Worker)
			}
			out = append(out, jobRecord{
				key: ev.Fields.Key, lane: lane, start: start, end: r.at,
				tier: ev.Fields.Tier, stages: ev.Fields.Stages, err: ev.Fields.Err,
			})
		}
	}
	return out
}

// ioEvent is one timed store or netstore operation.
type ioEvent struct {
	kind       string // "store.append", "store.fsync", "graphio.save"
	start, end time.Time
	key        string        // job key of an appended record
	net        hgraph.Params // canonical params of a saved blob
	bytes      int64
}

// rpcEvent is one HTTP attempt by a fleet worker.
type rpcEvent struct {
	worker     string
	endpoint   string // "claim", "heartbeat", "report", "complete"
	start, end time.Time
	failed     bool   // transport error or HTTP status >= 400
	claim      string // claim outcome: "shard", "empty", "done"
}

// phaseLog is one job's run start (observer creation) and phase ends.
type phaseLog struct {
	start time.Time
	ends  []time.Time
}

func (p *phaseLog) RoundEnd(*core.World) {}

func (p *phaseLog) PhaseEnd(*core.World) { p.ends = append(p.ends, time.Now()) }

// recorder collects one traced repetition's raw events. A nil recorder
// is the untraced mode: every method is a no-op.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	main   []span
	io     []ioEvent
	rpc    []rpcEvent
	phases map[string]map[string]*phaseLog // lane prefix -> job key -> log
	// workerSpans are the fleet workers' Run intervals.
	workerSpans []span
}

func newRecorder() *recorder {
	return &recorder{phases: map[string]map[string]*phaseLog{}}
}

// mark records a main-lane span around f.
func (r *recorder) mark(name string, f func()) {
	if r == nil {
		f()
		return
	}
	start := time.Now()
	f()
	end := time.Now()
	r.mu.Lock()
	r.main = append(r.main, span{Name: name, Lane: "main", Start: r.ns(start), End: r.ns(end)})
	r.mu.Unlock()
}

func (r *recorder) ns(t time.Time) int64 { return t.Sub(r.origin).Nanoseconds() }

// observerFor returns a sweep.Options.Observer factory whose observers
// log run start and phase ends under the given lane prefix.
func (r *recorder) observerFor(lane string) func(sweep.Job) core.Observer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	logs := map[string]*phaseLog{}
	r.phases[lane] = logs
	r.mu.Unlock()
	return func(j sweep.Job) core.Observer {
		key := j.Key()
		p := &phaseLog{start: time.Now()}
		r.mu.Lock()
		logs[key] = p
		r.mu.Unlock()
		return p
	}
}

func (r *recorder) addIO(e ioEvent) {
	r.mu.Lock()
	r.io = append(r.io, e)
	r.mu.Unlock()
}

// storeHook is the sweep.OpenStoreHooked seam: appends and fsyncs of
// the result store, each append attributed to its record's key.
func (r *recorder) storeHook() func(sweep.File) sweep.File {
	if r == nil {
		return nil
	}
	return func(f sweep.File) sweep.File { return &storeFile{File: f, r: r} }
}

type storeFile struct {
	sweep.File
	r *recorder
}

var keyPrefix = []byte(`{"key":"`)

func (f *storeFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	end := time.Now()
	// A one-byte write seals a torn line; only record lines are appends.
	if len(p) > len(keyPrefix)+64 && bytes.HasPrefix(p, keyPrefix) {
		f.r.addIO(ioEvent{kind: "store.append", start: start, end: end,
			key: string(p[len(keyPrefix) : len(keyPrefix)+64]), bytes: int64(n)})
	}
	return n, err
}

func (f *storeFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.r.addIO(ioEvent{kind: "store.fsync", start: start, end: time.Now()})
	return err
}

// saveHook is the graphio.NetStore.SetSaveHook seam. The blob header
// names the network's parameters, which attribute the save to a job.
func (r *recorder) saveHook() func(graphio.SaveFile) graphio.SaveFile {
	return func(f graphio.SaveFile) graphio.SaveFile {
		return &saveFile{SaveFile: f, r: r, start: time.Now()}
	}
}

type saveFile struct {
	graphio.SaveFile
	r     *recorder
	start time.Time
	hdr   [40]byte // magic, version, flags, then N, D, K, Seed
	n     int64
}

func (f *saveFile) Write(p []byte) (int, error) {
	if f.n < int64(len(f.hdr)) {
		copy(f.hdr[f.n:], p)
	}
	n, err := f.SaveFile.Write(p)
	f.n += int64(n)
	return n, err
}

func (f *saveFile) Close() error {
	err := f.SaveFile.Close()
	le := binary.LittleEndian
	p := hgraph.Params{
		N: int(le.Uint64(f.hdr[8:])), D: int(le.Uint64(f.hdr[16:])),
		K: int(le.Uint64(f.hdr[24:])), Seed: le.Uint64(f.hdr[32:]),
	}
	f.r.addIO(ioEvent{kind: "graphio.save", start: f.start, end: time.Now(),
		net: p.Canonical(), bytes: f.n})
	return err
}

// client returns the fleet worker's http.Client: untraced, the
// library's default (nil); traced, one whose transport times every
// attempt per endpoint.
func (r *recorder) client(worker string) *http.Client {
	if r == nil {
		return nil
	}
	return &http.Client{Transport: &rpcTap{base: http.DefaultTransport, r: r, worker: worker}}
}

type rpcTap struct {
	base   http.RoundTripper
	r      *recorder
	worker string
}

// RoundTrip times one attempt including its response body, which it
// reads here (replies are small) so the span ends when the reply has
// fully arrived.
func (t *rpcTap) RoundTrip(req *http.Request) (*http.Response, error) {
	ev := rpcEvent{worker: t.worker, endpoint: req.URL.Path[1:], start: time.Now()}
	resp, err := t.base.RoundTrip(req)
	if err == nil {
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
		if ev.endpoint == "claim" && err == nil {
			var c sweepd.ClaimResponse
			if json.Unmarshal(body, &c) == nil {
				switch {
				case c.Shard != nil:
					ev.claim = "shard"
				case c.Done:
					ev.claim = "done"
				default:
					ev.claim = "empty"
				}
			}
		}
		ev.failed = err != nil || resp.StatusCode >= 400
	} else {
		ev.failed = true
	}
	ev.end = time.Now()
	t.r.mu.Lock()
	t.r.rpc = append(t.r.rpc, ev)
	t.r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// workerRan records a fleet worker's Run interval.
func (r *recorder) workerRan(worker string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.workerSpans = append(r.workerSpans, span{Name: "sweepd.worker", Lane: worker,
		Start: r.ns(start), End: r.ns(end)})
	r.mu.Unlock()
}
