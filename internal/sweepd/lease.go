package sweepd

// lease.go is the coordinator's shard-assignment state machine: each
// shard is pending, leased (to a named worker, until an expiry), or
// done. Claims hand out the lowest-numbered claimable shard — pending,
// or leased but expired — under a fresh token; the token fences every
// later renew/complete, so a worker whose lease was reassigned cannot
// complete (or keep renewing) a shard someone else now owns. The clock
// is injected so lease expiry is unit-testable without sleeping.

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrLeaseLost is returned (and served as HTTP 409) when a renew,
// report, or complete arrives under a token that is stale or expired:
// the shard has been, or is about to be, reassigned. The worker's only
// correct move is to abandon the shard and claim again. Tokens embed
// the coordinator's fencing epoch (token = epoch<<32 | seq), so a
// worker that outlived a coordinator crash lands here too — its
// pre-crash token can never equal one the restarted coordinator
// issues.
var ErrLeaseLost = errors.New("sweepd: lease lost")

// errNoShard is returned (and served as HTTP 400) when a lease-scoped
// call names a shard index outside the table: a malformed or
// cross-sweep request, not a lease race — retrying cannot help.
var errNoShard = errors.New("sweepd: no such shard")

type shardState int

const (
	shardPending shardState = iota
	shardLeased
	shardDone
)

type shardLease struct {
	state   shardState
	worker  string
	token   int64
	expiry  time.Time
	assigns int // times leased; >1 means at least one reassignment
}

// leaseTable tracks shard assignment. All methods are safe for
// concurrent use.
type leaseTable struct {
	mu       sync.Mutex
	now      func() time.Time
	ttl      time.Duration
	epoch    uint32
	shards   []shardLease
	done     int
	nextSeq  int64
	lastSeen map[string]time.Time
}

// newLeaseTable builds the table. epoch fences tokens across
// coordinator incarnations: tokens are epoch<<32 | seq, so two tables
// with different epochs can never issue colliding tokens (epoch 0 —
// no journal — degrades to the plain sequence).
func newLeaseTable(shards int, ttl time.Duration, now func() time.Time, epoch uint32) *leaseTable {
	if now == nil {
		now = time.Now
	}
	return &leaseTable{
		now:      now,
		ttl:      ttl,
		epoch:    epoch,
		shards:   make([]shardLease, shards),
		lastSeen: make(map[string]time.Time),
	}
}

// Epoch returns the table's fencing epoch.
func (t *leaseTable) Epoch() uint32 { return t.epoch }

// Claim leases the lowest-numbered claimable shard to worker. ok is
// false when nothing is claimable — either every shard is done (check
// Done) or the remainder is leased to live workers (poll again).
// reassigned reports that the shard had been leased before, i.e. a
// previous owner died or went silent past its TTL.
func (t *leaseTable) Claim(worker string) (shard int, token int64, reassigned bool, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	t.lastSeen[worker] = now
	for i := range t.shards {
		s := &t.shards[i]
		claimable := s.state == shardPending ||
			(s.state == shardLeased && now.After(s.expiry))
		if !claimable {
			continue
		}
		t.nextSeq++
		reassigned = s.assigns > 0
		s.state = shardLeased
		s.worker = worker
		s.token = int64(t.epoch)<<32 | t.nextSeq
		s.expiry = now.Add(t.ttl)
		s.assigns++
		return i, s.token, reassigned, true
	}
	return 0, 0, false, false
}

// Renew extends the lease if token still owns shard and has not expired.
func (t *leaseTable) Renew(worker string, shard int, token int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	t.lastSeen[worker] = now
	s, err := t.holding(shard, token, now)
	if err != nil {
		return err
	}
	s.expiry = now.Add(t.ttl)
	return nil
}

// Complete marks shard done if token still owns it.
func (t *leaseTable) Complete(worker string, shard int, token int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	t.lastSeen[worker] = now
	s, err := t.holding(shard, token, now)
	if err != nil {
		return err
	}
	s.state = shardDone
	t.done++
	return nil
}

// shardView is one shard's assignment state for /status: "pending",
// "active" (live lease), or "done", plus the current or last holder.
type shardView struct {
	state  string
	worker string
}

// View snapshots every shard's assignment state. An expired lease
// shows as pending — it is claimable and its holder presumed dead.
func (t *leaseTable) View() []shardView {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	out := make([]shardView, len(t.shards))
	for i := range t.shards {
		s := &t.shards[i]
		state := "pending"
		switch {
		case s.state == shardDone:
			state = "done"
		case s.state == shardLeased && !now.After(s.expiry):
			state = "active"
		}
		out[i] = shardView{state: state, worker: s.worker}
	}
	return out
}

// holding validates (shard, token) against the current leases; the
// caller holds t.mu.
func (t *leaseTable) holding(shard int, token int64, now time.Time) (*shardLease, error) {
	if shard < 0 || shard >= len(t.shards) {
		return nil, fmt.Errorf("%w: shard %d of %d", errNoShard, shard, len(t.shards))
	}
	s := &t.shards[shard]
	if s.state != shardLeased || s.token != token || now.After(s.expiry) {
		return nil, ErrLeaseLost
	}
	return s, nil
}

// Done reports whether every shard is complete.
func (t *leaseTable) Done() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done == len(t.shards)
}

// Counts tallies shard states; leases past their expiry count as
// pending — they are claimable, their worker is presumed dead.
func (t *leaseTable) Counts() (pending, active, done int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	for i := range t.shards {
		switch s := &t.shards[i]; {
		case s.state == shardDone:
			done++
		case s.state == shardLeased && !now.After(s.expiry):
			active++
		default:
			pending++
		}
	}
	return
}

// Workers snapshots every worker the table has heard from and whether
// it has been seen within one TTL (the liveness horizon).
func (t *leaseTable) Workers() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	out := make(map[string]time.Duration, len(t.lastSeen))
	for w, seen := range t.lastSeen {
		out[w] = now.Sub(seen)
	}
	return out
}

// Alive counts workers seen within one TTL.
func (t *leaseTable) Alive() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	n := 0
	for _, seen := range t.lastSeen {
		if now.Sub(seen) <= t.ttl {
			n++
		}
	}
	return n
}
