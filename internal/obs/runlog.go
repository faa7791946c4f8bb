package obs

// runlog.go is the structured JSONL run-log: one line per scheduler
// lifecycle event (sweep start/end, job start/finish/skip, and, under
// a sweepd coordinator, shard claims, reassignments and completions),
// written beside the result store so a sweep's execution history
// travels with its results. The format matches the result store's durability
// contract: O_APPEND opens, one Write per line, unparseable lines are
// the reader's problem to skip — so a run-log survives the same crashes
// the store does and concatenates across resumed runs.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// RunEvent is one run-log line. Fields beyond the fixed header live in
// Fields and are inlined into the JSON object (encoding/json sorts map
// keys, so lines are deterministic given deterministic values).
type RunEvent struct {
	// TimeMS is milliseconds since the Unix epoch (a float keeps
	// sub-millisecond resolution without a format parser on the other
	// end).
	TimeMS float64 `json:"ts_ms"`
	// Event names the lifecycle step: sweep_start, job_start, job_done,
	// job_skip, sweep_end, and a sweepd coordinator's shard_claim,
	// shard_reassign and shard_complete.
	Event  string         `json:"event"`
	Fields map[string]any `json:"fields,omitempty"`
}

// RunLog appends structured events as JSONL. All methods are safe for
// concurrent use, and safe on a nil receiver (a nil *RunLog is the
// disabled log, so call sites never guard).
type RunLog struct {
	mu  sync.Mutex
	w   io.Writer
	c   io.Closer // nil when the writer is not ours to close
	now func() time.Time
	// torn records that the last append failed after landing a partial
	// line; the next event seals it with a newline first, so one torn
	// write costs one line, never the line after it too.
	torn bool
}

// NewRunLog logs to w (the caller owns w's lifetime).
func NewRunLog(w io.Writer) *RunLog {
	return &RunLog{w: w, now: time.Now}
}

// OpenRunLog opens (creating if absent) an append-mode run-log at path.
func OpenRunLog(path string) (*RunLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: open run-log: %w", err)
	}
	return &RunLog{w: f, c: f, now: time.Now}, nil
}

// Event appends one line. Marshal errors are returned, write errors are
// returned, and neither disturbs previously written lines (each event is
// one Write of one newline-terminated buffer).
func (l *RunLog) Event(event string, fields map[string]any) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w == nil {
		return nil
	}
	e := RunEvent{
		TimeMS: float64(l.now().UnixNano()) / 1e6,
		Event:  event,
		Fields: fields,
	}
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("obs: marshal run-log event: %w", err)
	}
	line = append(line, '\n')
	if l.torn {
		if _, err := l.w.Write([]byte{'\n'}); err != nil {
			return fmt.Errorf("obs: seal torn run-log line: %w", err)
		}
		l.torn = false
	}
	if n, err := l.w.Write(line); err != nil {
		if n > 0 && n < len(line) {
			l.torn = true
		}
		return fmt.Errorf("obs: append run-log event: %w", err)
	}
	return nil
}

// Close closes the underlying file when the log owns one. Safe on nil
// and safe to call twice.
func (l *RunLog) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.w = nil
	if l.c == nil {
		return nil
	}
	c := l.c
	l.c = nil
	return c.Close()
}

// ReadRunLog parses a run-log stream, skipping unparseable lines (the
// same tolerance the result store extends to its own file). It exists
// for tests and offline analysis tooling.
func ReadRunLog(r io.Reader) ([]RunEvent, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var events []RunEvent
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if len(line) == 0 {
			continue
		}
		var e RunEvent
		if err := json.Unmarshal(line, &e); err != nil || e.Event == "" {
			continue
		}
		events = append(events, e)
	}
	return events, nil
}
