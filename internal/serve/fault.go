package serve

import (
	"fmt"
	"sort"
	"time"

	"github.com/ksan-net/ksan/internal/core"
	"github.com/ksan-net/ksan/internal/policy"
)

// DefaultCheckpointEvery is the checkpoint interval (local serves between
// snapshots) when a FaultPlan leaves CheckpointEvery at 0.
const DefaultCheckpointEvery = 1024

// FaultKind labels one scripted fault.
type FaultKind uint8

const (
	// FaultCrash loses the shard's in-memory network state. The shard
	// stays up but answers "down" until recovery, which rebuilds the
	// exact pre-crash state from the last checkpoint plus a deterministic
	// replay of the post-checkpoint request log.
	FaultCrash FaultKind = iota
	// FaultStall freezes the shard for a wall-clock duration without
	// losing state — the slow-shard scenario that exercises client
	// deadlines. A sleeper goroutine holds the shard's token for the
	// duration, so no request is served; the client whose serve hit the
	// stall point returns at once.
	FaultStall
)

func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultStall:
		return "stall"
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// DegradedMode selects what clients do with a request half whose shard is
// down after retries are exhausted.
type DegradedMode uint8

const (
	// DegradedFail fails the request fast (counted, never served).
	DegradedFail DegradedMode = iota
	// DegradedStale serves the half read-only through the shard's
	// last-checkpoint distance oracle: possibly stale routing answers,
	// no adjustment, counted separately from healthy serves.
	DegradedStale
)

func (m DegradedMode) String() string {
	switch m {
	case DegradedFail:
		return "fail"
	case DegradedStale:
		return "stale"
	}
	return fmt.Sprintf("DegradedMode(%d)", uint8(m))
}

// FaultEvent is one scripted fault. Trigger points are logical — the
// owning shard's local serve count, never wall clock — so a schedule
// replays identically across runs and machines.
type FaultEvent struct {
	// Shard is the target shard index.
	Shard int
	// At fires the event immediately after the shard's At-th local serve
	// completes (At >= 1). Rejected arrivals and recovery replays do not
	// advance the count, so At addresses a point in the shard's logical
	// serve sequence.
	At int64
	// Kind is what happens at the trigger point.
	Kind FaultKind
	// RecoverAfter (crashes only) is how many arrivals the downed shard
	// rejects before the next arrival triggers recovery: 0 recovers on
	// the first post-crash arrival (no request is ever lost), -1 never
	// recovers.
	RecoverAfter int64
	// Stall (stalls only) is how long the shard's token stays with a
	// sleeper; a stall ends early when the run stops.
	Stall time.Duration
}

// FaultPlan scripts the faults of one serving run and configures the
// robustness machinery around them. A nil *FaultPlan in Config means
// faults are disarmed.
type FaultPlan struct {
	// CheckpointEvery is the per-shard checkpoint interval in local
	// serves (0 = DefaultCheckpointEvery). Between checkpoints each shard
	// appends served requests to an in-memory replay log, so the log is
	// bounded by this interval.
	CheckpointEvery int64
	// Degraded selects the client policy for down shards once retries
	// are exhausted.
	Degraded DegradedMode
	// Timeout bounds, per attempt, the wait for a shard that someone else
	// is serving: publishing the request plus its reply. A client that
	// finds the shard free serves at once and arms no deadline. 0
	// disables deadlines. Timed-out requests are never retried: the
	// request may have been published, and a published request is served
	// exactly once (its late reply is drained and ledgered).
	Timeout time.Duration
	// Retries is how many times a client re-sends a half-request after a
	// "down" reply (each attempt ticks the shard's recovery clock).
	Retries int
	// Backoff is the base delay before the first retry, doubling per
	// attempt up to BackoffCap, with deterministic jitter in [1/2, 1)
	// seeded by (Seed, client id). 0 retries immediately.
	Backoff    time.Duration
	BackoffCap time.Duration
	// Seed seeds the backoff jitter stream.
	Seed uint64
	// Events is the fault schedule, in any order. Per shard, At values
	// must be distinct.
	Events []FaultEvent
}

// checkpointInterval resolves the configured interval.
func (p *FaultPlan) checkpointInterval() int64 {
	if p.CheckpointEvery == 0 {
		return DefaultCheckpointEvery
	}
	return p.CheckpointEvery
}

// Check validates the rules of the plan that hold whatever the run's
// shard count: non-negative interval, timeout, retries and backoff, a
// known degraded mode, and per event a shard index >= 0, a trigger point
// >= 1, a known kind with only that kind's field set, and no second event
// at the same point of the same shard. Run adds the shard range.
func (p *FaultPlan) Check() error {
	if p.CheckpointEvery < 0 {
		return fmt.Errorf("serve: fault plan: checkpoint interval %d < 0", p.CheckpointEvery)
	}
	if p.Degraded != DegradedFail && p.Degraded != DegradedStale {
		return fmt.Errorf("serve: fault plan: unknown degraded mode %d", p.Degraded)
	}
	if p.Timeout < 0 || p.Retries < 0 || p.Backoff < 0 || p.BackoffCap < 0 {
		return fmt.Errorf("serve: fault plan: negative timeout/retries/backoff")
	}
	for i, ev := range p.Events {
		if ev.Shard < 0 {
			return fmt.Errorf("serve: fault event %d targets shard %d", i, ev.Shard)
		}
		if ev.At < 1 {
			return fmt.Errorf("serve: fault event %d fires at %d; trigger points start at 1", i, ev.At)
		}
		switch ev.Kind {
		case FaultCrash:
			if ev.RecoverAfter < -1 {
				return fmt.Errorf("serve: fault event %d: recover-after %d < -1", i, ev.RecoverAfter)
			}
			if ev.Stall != 0 {
				return fmt.Errorf("serve: fault event %d: crash with a stall duration", i)
			}
		case FaultStall:
			if ev.Stall <= 0 {
				return fmt.Errorf("serve: fault event %d: stall without a positive duration", i)
			}
			if ev.RecoverAfter != 0 {
				return fmt.Errorf("serve: fault event %d: stall with recover-after", i)
			}
		default:
			return fmt.Errorf("serve: fault event %d: unknown kind %d", i, ev.Kind)
		}
		for _, prev := range p.Events[:i] {
			if prev.Shard == ev.Shard && prev.At == ev.At {
				return fmt.Errorf("serve: shard %d has two fault events at serve %d", ev.Shard, ev.At)
			}
		}
	}
	return nil
}

// validate checks the plan against the run's shard count and returns the
// per-shard event schedules, each sorted by At.
func (p *FaultPlan) validate(shards int) ([][]FaultEvent, error) {
	if err := p.Check(); err != nil {
		return nil, err
	}
	perShard := make([][]FaultEvent, shards)
	for i, ev := range p.Events {
		if ev.Shard >= shards {
			return nil, fmt.Errorf("serve: fault event %d targets shard %d of %d", i, ev.Shard, shards)
		}
		perShard[ev.Shard] = append(perShard[ev.Shard], ev)
	}
	for _, evs := range perShard {
		sort.SliceStable(evs, func(a, b int) bool { return evs[a].At < evs[b].At })
	}
	return perShard, nil
}

// recoverable is the checkpoint surface the fault machinery requires of
// every shard network when a plan is armed: policy.Net's exact-state
// checkpoint/restore plus tree access for the stale-read oracle.
// *policy.Net (and therefore every tree-backed composition the spec layer
// can build) implements it; custom substrates do not and are rejected at
// Run start.
type recoverable interface {
	Checkpointable() bool
	CheckpointInto(cp *policy.Checkpoint) error
	Restore(cp *policy.Checkpoint) error
	Tree() *core.Tree
}

// FaultStats is the fault ledger of one run: everything the robustness
// machinery did, separated from the healthy serving totals. All counters
// cover the whole run (warmup included — faults don't respect measurement
// regions).
type FaultStats struct {
	Crashes     int64 // crash events fired
	Recoveries  int64 // snapshot+replay recoveries completed
	Checkpoints int64 // checkpoints taken across all shards

	ReplayedRequests int64 // requests re-served from replay logs during recovery
	ReplayRouting    int64 // cost of replayed serves (excluded from serving totals)
	ReplayAdjust     int64

	Stalls   int64 // stall events fired
	Rejected int64 // "down" replies from crashed shards

	Timeouts int64 // attempts that missed their deadline (send or reply)
	Retries  int64 // re-sends after down replies

	FailedRequests   int64 // requests abandoned (timeout, or down after retries under fail-fast)
	DegradedRequests int64 // requests served through a stale checkpoint oracle
	DegradedRouting  int64 // their routing cost (excluded from serving totals)

	LateReplies int64 // replies that arrived after their request timed out
	LateRouting int64 // routing cost of late-served halves (kept in per-shard totals)
}

// merge folds b into f.
func (f *FaultStats) merge(b *FaultStats) {
	f.Crashes += b.Crashes
	f.Recoveries += b.Recoveries
	f.Checkpoints += b.Checkpoints
	f.ReplayedRequests += b.ReplayedRequests
	f.ReplayRouting += b.ReplayRouting
	f.ReplayAdjust += b.ReplayAdjust
	f.Stalls += b.Stalls
	f.Rejected += b.Rejected
	f.Timeouts += b.Timeouts
	f.Retries += b.Retries
	f.FailedRequests += b.FailedRequests
	f.DegradedRequests += b.DegradedRequests
	f.DegradedRouting += b.DegradedRouting
	f.LateReplies += b.LateReplies
	f.LateRouting += b.LateRouting
}
