package sweepd

// journal_test.go pins the crash-recovery journal and the epoch fencing
// it exists for: the epoch is monotone across opens, saves are atomic,
// a corrupt journal refuses to load (resetting the epoch would un-fence
// stale workers), and — the point of the whole mechanism — a lease
// token issued before a coordinator restart is rejected with
// ErrLeaseLost by the successor, never silently honored.

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/sweep"
)

func TestJournalZeroThenBump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if j.Epoch != 0 || j.Shards != 0 {
		t.Fatalf("fresh journal = %+v, want zero", j)
	}
	if err := j.Bump(8); err != nil {
		t.Fatal(err)
	}
	if j.Epoch != 1 || j.Shards != 8 {
		t.Fatalf("after first bump = %+v, want epoch 1 shards 8", j)
	}

	// A reopen (the restarted coordinator) sees the persisted state and
	// bumps past it; the recorded geometry survives a changed request.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Epoch != 1 || j2.Shards != 8 {
		t.Fatalf("reopened journal = %+v, want epoch 1 shards 8", j2)
	}
	if err := j2.Bump(16); err != nil {
		t.Fatal(err)
	}
	if j2.Epoch != 2 || j2.Shards != 8 {
		t.Fatalf("after second bump = %+v, want epoch 2, original shards 8", j2)
	}
}

func TestJournalCorruptRefusesLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path); err == nil {
		t.Fatal("corrupt journal loaded as zero state — stale workers un-fenced")
	}
}

func TestJournalSaveLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(filepath.Join(dir, "sweep.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Bump(4); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "sweep.journal" {
		t.Fatalf("journal dir = %v, want exactly sweep.journal", entries)
	}
}

// TestLeaseEpochFencing: tokens from a table with epoch E are rejected
// by a table with epoch E+1 over the same shards — the in-memory half
// of coordinator crash recovery.
func TestLeaseEpochFencing(t *testing.T) {
	clk := newFakeClock()
	old := newLeaseTable(2, time.Minute, clk.Now, 1)
	shard, staleToken, _, ok := old.Claim("w1")
	if !ok {
		t.Fatal("claim failed")
	}

	// Coordinator "crashes"; successor builds a fresh table at epoch 2.
	succ := newLeaseTable(2, time.Minute, clk.Now, 2)
	if err := succ.Renew("w1", shard, staleToken); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale-epoch renew = %v, want ErrLeaseLost", err)
	}
	// Even after the successor leases the same shard to someone, the old
	// token still cannot complete it.
	if _, _, _, ok := succ.Claim("w2"); !ok {
		t.Fatal("successor claim failed")
	}
	if err := succ.Complete("w1", shard, staleToken); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale-epoch complete = %v, want ErrLeaseLost", err)
	}
	// The fenced worker re-claims cleanly: shard 1 is still free.
	if _, tok, _, ok := succ.Claim("w1"); !ok || tok>>32 != 2 {
		t.Fatalf("re-claim after fencing: ok=%v token=%d, want epoch-2 token", ok, tok)
	}
}

func TestLeaseNoShardIsNotLeaseLost(t *testing.T) {
	clk := newFakeClock()
	lt := newLeaseTable(1, time.Minute, clk.Now, 0)
	err := lt.Renew("w", 7, 1)
	if !errors.Is(err, errNoShard) {
		t.Fatalf("out-of-range renew = %v, want errNoShard", err)
	}
	if errors.Is(err, ErrLeaseLost) {
		t.Fatal("errNoShard must not read as a lease race")
	}
}

// TestCoordinatorRestartFencesStaleToken drives the fencing end to end
// over HTTP: a worker claims from coordinator #1, the coordinator is
// replaced (same store, same journal), and the worker's held token gets
// 409 from coordinator #2 — the client maps that to ErrLeaseLost, which
// sends a real Worker back to claiming. It runs from a fresh journal
// and from one an older, work-stealing coordinator left behind, whose
// "cuts" list must not stop it opening, bumping, or partitioning by
// its recorded shard count.
func TestCoordinatorRestartFencesStaleToken(t *testing.T) {
	jobs := testJobs(t)
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = j.Key()
	}
	sort.Strings(keys)
	for _, tc := range []struct {
		name    string
		journal string // journal on disk before the first boot ("": none)
		epoch   uint32 // first boot's epoch
		shards  int    // geometry both boots must partition with
	}{
		{name: "fresh", epoch: 1, shards: 4},
		// keys[1] sits inside shard 0 of the 3-shard partition, so a
		// coordinator that still replayed the cut would serve 4 shards.
		{name: "journal-with-cuts", epoch: 7, shards: 3,
			journal: fmt.Sprintf(`{"epoch": 6, "shards": 3, "cuts": [%q]}`, keys[1])},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.journal != "" {
				if err := os.WriteFile(filepath.Join(dir, "sweep.journal"), []byte(tc.journal), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			newCoord := func() (*Coordinator, *Journal) {
				t.Helper()
				store, err := sweep.OpenStore(filepath.Join(dir, "results.jsonl"))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { store.Close() })
				j, err := OpenJournal(filepath.Join(dir, "sweep.journal"))
				if err != nil {
					t.Fatal(err)
				}
				coord, err := NewCoordinator(jobs, Config{
					Name: "dist", Store: store, Shards: 4, Journal: j,
				})
				if err != nil {
					t.Fatal(err)
				}
				if got := coord.Status().Shards.Total; got != tc.shards {
					t.Fatalf("coordinator serves %d shards, want the journal's %d", got, tc.shards)
				}
				return coord, j
			}

			ctx := context.Background()
			c1, j1 := newCoord()
			if j1.Epoch != tc.epoch {
				t.Fatalf("first boot epoch = %d, want %d", j1.Epoch, tc.epoch)
			}
			srv1 := httptest.NewServer(c1.Handler())
			cl1 := newClient(srv1.URL, srv1.Client(), 1, time.Millisecond, 0, 0, nil)
			var resp ClaimResponse
			if err := cl1.post(ctx, "/claim", ClaimRequest{Worker: "w1"}, &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Shard == nil {
				t.Fatalf("claim = %+v, want a shard", resp)
			}
			shard, stale := resp.Shard.ID, resp.Shard.Lease
			if uint32(stale>>32) != tc.epoch {
				t.Fatalf("token %d does not embed epoch %d", stale, tc.epoch)
			}
			srv1.Close() // crash: no store close, no lease handover

			c2, j2 := newCoord()
			if j2.Epoch != tc.epoch+1 {
				t.Fatalf("second boot epoch = %d, want %d", j2.Epoch, tc.epoch+1)
			}
			if got := c2.Status().Epoch; got != tc.epoch+1 {
				t.Fatalf("/status epoch = %d, want %d", got, tc.epoch+1)
			}
			srv2 := httptest.NewServer(c2.Handler())
			defer srv2.Close()
			cl2 := newClient(srv2.URL, srv2.Client(), 1, time.Millisecond, 0, 0, nil)
			err := cl2.post(ctx, "/heartbeat", HeartbeatRequest{Worker: "w1", Shard: shard, Lease: stale}, &OKResponse{})
			if !errors.Is(err, ErrLeaseLost) {
				t.Fatalf("stale heartbeat after restart = %v, want ErrLeaseLost", err)
			}
			err = cl2.post(ctx, "/report", ReportRequest{Worker: "w1", Shard: shard, Lease: stale}, &ReportResponse{})
			if !errors.Is(err, ErrLeaseLost) {
				t.Fatalf("stale report after restart = %v, want ErrLeaseLost", err)
			}
			// And the fenced worker's recovery move works: a fresh claim
			// under the new epoch.
			var resp2 ClaimResponse
			if err := cl2.post(ctx, "/claim", ClaimRequest{Worker: "w1"}, &resp2); err != nil {
				t.Fatal(err)
			}
			if resp2.Shard == nil || uint32(resp2.Shard.Lease>>32) != tc.epoch+1 {
				t.Fatalf("re-claim = %+v, want an epoch-%d lease", resp2, tc.epoch+1)
			}
		})
	}
}
