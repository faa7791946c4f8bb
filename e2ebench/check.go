package main

// check.go holds the output checks. Each check is one attempted
// operation; a failed one is named in the output and counted in the
// result line's "failed" field (failed_frac = failed / attempted).

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/graphio"
	"repro/internal/hgraph"
	"repro/internal/sweep"
)

// tally counts attempted and failed operations.
type tally struct {
	attempted, failed int
	notes             []string
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.notes = append(t.notes, o.notes...)
}

// checkJobs counts every job as one operation, failed if it carries an
// error.
func checkJobs(outs []sweep.Outcome, t *tally) {
	for _, o := range outs {
		t.check(o.Err == nil, "job %s failed: %v", o.Job.Label(), o.Err)
	}
}

// checkIdentical requires two renderings of the same grid to match
// byte for byte.
func checkIdentical(want, got, what string, t *tally) {
	t.check(want == got, "%s: rendered aggregates differ", what)
}

// checkRecords reads a result store back and requires every record's
// Key to equal its Job.Key(), and the store to hold exactly the grid's
// job keys.
func checkRecords(path string, jobs []sweep.Job, t *tally) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("check records: %w", err)
	}
	defer f.Close()
	want := map[string]bool{}
	for _, j := range jobs {
		want[j.Key()] = true
	}
	seen := map[string]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec sweep.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.check(false, "store %s: unparseable record: %v", filepath.Base(path), err)
			continue
		}
		t.check(rec.Key == rec.Job.Key() && want[rec.Key],
			"store record %s: key does not match its job (%s)", rec.Key, rec.Job.Label())
		seen[rec.Key] = true
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("check records: %w", err)
	}
	t.check(len(seen) == len(want), "store holds %d distinct keys, the grid has %d", len(seen), len(want))
	return nil
}

// distinctNets returns the grid's distinct canonical topologies, in
// expansion order.
func distinctNets(jobs []sweep.Job) []hgraph.Params {
	seen := map[hgraph.Params]bool{}
	var out []hgraph.Params
	for _, j := range jobs {
		p := j.Net.Canonical()
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// checkNetstore requires the topology store to hold exactly the grid's
// distinct topologies: one blob each, nothing else.
func checkNetstore(ns *graphio.NetStore, jobs []sweep.Job, t *tally) error {
	entries, err := os.ReadDir(ns.Dir())
	if err != nil {
		return fmt.Errorf("check netstore: %w", err)
	}
	var got, want []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	for _, p := range distinctNets(jobs) {
		want = append(want, ns.Key(p)+".net")
	}
	sort.Strings(got)
	sort.Strings(want)
	t.check(strings.Join(got, ",") == strings.Join(want, ","),
		"netstore holds %d files, the grid has %d distinct topologies", len(got), len(want))
	return nil
}

// bandRow is one cell's Theorem 1 check.
type bandRow struct {
	label     string
	survivor  float64
	threshold float64
}

func (b bandRow) ok() bool { return b.survivor >= b.threshold }

// checkBand compares every cell's mean survivor-correct fraction with
// Theorem 1's 1−ε. The band is the renderer's own (metrics.DefaultBand)
// and ε is the cell's, with the core default 0.1 where the job leaves it
// zero.
func checkBand(groups []sweep.Group, t *tally) []bandRow {
	var rows []bandRow
	for _, g := range groups {
		eps := g.Job.Epsilon
		if eps == 0 {
			eps = 0.1
		}
		row := bandRow{label: g.Job.Label(), survivor: g.Agg.SurvivorCorrect.Mean(), threshold: 1 - eps}
		t.check(row.ok(), "cell %s: survivor-correct %.4f below 1-ε = %.4f", row.label, row.survivor, row.threshold)
		rows = append(rows, row)
	}
	return rows
}
