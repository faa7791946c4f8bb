package sweepd

// journal.go is the coordinator's crash-recovery journal: a tiny JSON
// file beside the result store holding the fencing epoch and the shard
// geometry. The heavy state — which jobs are done — already lives in
// the content-addressed store and is re-derived on boot; the journal
// carries only what the store cannot: a monotone epoch that makes every
// restarted coordinator's lease tokens disjoint from its predecessor's
// (token = epoch<<32 | seq), so a worker still holding a pre-crash
// lease gets a clean 409 instead of colliding with a fresh token, and
// the shard count, so a restart partitions the remaining keyspace with
// the same geometry even if the flag changed. Saves are atomic
// (temp + rename + fsync), matching the netstore's write protocol.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Journal is the persisted coordinator identity. Epoch is the fencing
// generation: every boot through OpenJournal+Bump gets a strictly
// larger value than any token the previous incarnation ever issued.
type Journal struct {
	path string

	// Epoch is the current fencing generation (0: journal never used).
	Epoch uint32 `json:"epoch"`
	// Shards is the shard-count geometry of the sweep this journal
	// belongs to (0: not yet recorded; the coordinator's Config wins).
	Shards int `json:"shards"`
}

// OpenJournal reads the journal at path, or returns a zero journal if
// none exists yet. A corrupt journal is an error, not a silent reset —
// resetting the epoch would un-fence stale workers. Unknown fields are
// ignored, so a journal an older coordinator wrote with its work-stealing
// "cuts" list still opens; the successor partitions the remaining jobs
// by Shards alone and the bumped epoch fences every pre-crash lease.
func OpenJournal(path string) (*Journal, error) {
	j := &Journal{path: path}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return j, nil
	}
	if err != nil {
		return nil, fmt.Errorf("sweepd: open journal: %w", err)
	}
	if err := json.Unmarshal(data, j); err != nil {
		return nil, fmt.Errorf("sweepd: parse journal %s: %w", path, err)
	}
	j.path = path
	return j, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Bump advances the fencing epoch and persists. Called once per
// coordinator boot, before any lease is issued: if the save fails the
// boot must fail too, or a second crash could reuse the epoch.
func (j *Journal) Bump(shards int) error {
	j.Epoch++
	if j.Shards == 0 {
		j.Shards = shards
	}
	return j.Save()
}

// Save persists the journal atomically: temp file, fsync, rename. A
// crash mid-save leaves the previous journal intact.
func (j *Journal) Save() error {
	if j.path == "" {
		return fmt.Errorf("sweepd: journal has no path")
	}
	data, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		return fmt.Errorf("sweepd: marshal journal: %w", err)
	}
	data = append(data, '\n')
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, ".journal-*")
	if err != nil {
		return fmt.Errorf("sweepd: save journal: %w", err)
	}
	_, werr := tmp.Write(data)
	serr := tmp.Sync()
	cerr := tmp.Close()
	for _, e := range []error{werr, serr, cerr} {
		if e != nil {
			os.Remove(tmp.Name())
			return fmt.Errorf("sweepd: save journal: %w", e)
		}
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweepd: save journal: %w", err)
	}
	return nil
}
