package serve

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/ksan-net/ksan/internal/policy"
	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/statictree"
)

// staticServer is the shard-safe serving hook: a network whose topology
// is provably static (a frozen composition) exposes its Euler-tour/RMQ
// distance oracle, and the serving layer then answers its requests
// lock-free from the client routines themselves — the oracle is immutable,
// so concurrent Dist calls need no coordination. policy.Net and
// statictree.Net implement it; any network that does not (or whose
// StaticOracle reports false because its trigger can still fire) is
// served through its shard's owner goroutine instead.
type staticServer interface {
	StaticOracle() (*statictree.DistIndex, bool)
}

// request is one unit of work sent to a shard's owner loop. It carries
// the client's attempt sequence number, so a reply that arrives after its
// deadline can be told apart from the reply being awaited. The reply
// channel is client-owned and reused across requests, so the closed-loop
// hot path allocates nothing per request.
type request struct {
	u, v  int
	seq   uint64
	reply chan response
}

// response statuses.
const (
	statusOK   uint8 = iota
	statusDown       // refused without serving: the shard is crashed
)

// response is one owner reply.
type response struct {
	cost   sim.Cost
	seq    uint64
	shard  int32
	status uint8
}

// shard owns one partition of the node space: a private network instance
// plus the single goroutine allowed to mutate it. All self-adjustment —
// rotations, trigger state, demand windows, churn scratch — happens
// inside the owner loop, which is what makes serving concurrent without
// any locks on network state (the single-writer rule, DESIGN.md §11).
// Frozen shards additionally carry their distance oracle; clients serve
// those without ever touching the loop. When a fault plan is armed every
// shard — frozen included — is served through its owner loop, which then
// also checkpoints, injects the scripted crashes and stalls, and recovers
// by snapshot+replay (DESIGN.md §12).
type shard struct {
	id     int
	nodes  int
	net    sim.Network
	oracle *statictree.DistIndex // non-nil: frozen, clients serve lock-free
	ch     chan request
	record bool
	local  []sim.Request // processed local sequence, when record is set

	// Fault state, owner-goroutine-private except stale. plan is nil when
	// faults are disarmed, and then nothing below is used.
	plan          *FaultPlan
	stop          <-chan struct{} // closed when the pool halts; ends a stall
	recov         recoverable
	cp            policy.Checkpoint
	events        []FaultEvent  // scripted events not yet fired, by At
	wal           []sim.Request // post-checkpoint replay log, bounded by the checkpoint interval
	localServed   int64
	down          bool
	downRemaining int64 // arrivals to reject before recovering; -1 = never
	// stale is the distance oracle over the last checkpoint's topology
	// that degraded-mode reads use (DegradedStale only), built when a
	// crash restores that checkpoint. Each crash builds a fresh immutable
	// index, so clients may keep querying one they loaded while the owner
	// moves on.
	stale atomic.Pointer[statictree.DistIndex]

	faults FaultStats // owner-side ledger slice (crashes, recoveries, checkpoints, replays, stalls, rejections)
}

// run is the owner loop: the only goroutine that ever calls Serve on this
// shard's network. It drains the request channel in arrival order, which
// defines the shard's local request sequence — the sequence the
// sequential-equivalence property replays. The fault plan is consulted at
// two fixed points only: the down/recovery check before a serve, and the
// replay-log append plus checkpoint/event boundary after it.
func (s *shard) run() {
	if s.plan != nil {
		s.checkpoint() // recovery point for a crash before the first interval
	}
	for rq := range s.ch {
		if s.down && !s.recover() {
			s.faults.Rejected++
			rq.reply <- response{seq: rq.seq, shard: int32(s.id), status: statusDown}
			continue
		}
		if s.record {
			s.local = append(s.local, sim.Request{Src: rq.u, Dst: rq.v})
		}
		rq.reply <- response{cost: s.net.Serve(rq.u, rq.v), seq: rq.seq, shard: int32(s.id)}
		if s.plan != nil {
			s.afterServe(rq.u, rq.v)
		}
	}
}

// checkpoint snapshots the shard's full cost-relevant network state and
// truncates the replay log (the new checkpoint supersedes it). The
// CheckpointInto error path is unreachable: Run rejects
// non-checkpointable networks before starting any owner.
func (s *shard) checkpoint() {
	if err := s.recov.CheckpointInto(&s.cp); err != nil {
		panic(fmt.Sprintf("serve: shard %d checkpoint failed after Run-time validation: %v", s.id, err))
	}
	s.faults.Checkpoints++
	s.wal = s.wal[:0]
}

// crash loses the shard's in-memory network state, so the owner restores
// the last checkpoint at once — all a restarted shard could load. In
// stale-read mode it then builds the degraded-read oracle over that
// topology: one oracle per crash, the only time a client can need one.
func (s *shard) crash(recoverAfter int64) {
	s.down = true
	s.downRemaining = recoverAfter
	s.faults.Crashes++
	// The restore error path is unreachable for the same reason as in
	// checkpoint (the checkpoint came from this very net).
	if err := s.recov.Restore(&s.cp); err != nil {
		panic(fmt.Sprintf("serve: shard %d restore failed after Run-time validation: %v", s.id, err))
	}
	if s.plan.Degraded == DegradedStale {
		s.stale.Store(statictree.NewDistIndex(s.recov.Tree()))
	}
}

// recover is the downed shard's answer to one arrival: it reports false
// while the crash still has arrivals to reject, and otherwise replays the
// post-checkpoint log onto the checkpoint the crash restored — which
// provably rebuilds the exact pre-crash state (the policy layer's
// checkpoint-restore equivalence), so a recovered shard's subsequent
// serves are bit-identical to a run that never crashed.
func (s *shard) recover() bool {
	if s.downRemaining != 0 {
		if s.downRemaining > 0 {
			s.downRemaining--
		}
		return false
	}
	for _, r := range s.wal {
		c := s.net.Serve(r.Src, r.Dst)
		s.faults.ReplayRouting += c.Routing
		s.faults.ReplayAdjust += c.Adjust
	}
	s.faults.ReplayedRequests += int64(len(s.wal))
	s.faults.Recoveries++
	s.down = false
	return true
}

// afterServe is the post-serve boundary of an armed plan: log the served
// request for replay, then checkpoint every interval serves, then fire
// any event scheduled at this point — a crash scheduled on a checkpoint
// boundary loses nothing and replays nothing.
func (s *shard) afterServe(u, v int) {
	s.wal = append(s.wal, sim.Request{Src: u, Dst: v})
	s.localServed++
	if s.localServed%s.plan.checkpointInterval() == 0 {
		s.checkpoint()
	}
	for len(s.events) > 0 && s.events[0].At == s.localServed {
		ev := s.events[0]
		s.events = s.events[1:]
		switch ev.Kind {
		case FaultCrash:
			s.crash(ev.RecoverAfter)
		case FaultStall:
			s.faults.Stalls++
			t := time.NewTimer(ev.Stall)
			select {
			case <-t.C:
			case <-s.stop:
				t.Stop()
			}
		}
	}
}
