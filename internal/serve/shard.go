package serve

import (
	"fmt"
	"sync"
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
// so concurrent Dist calls need no coordination. policy.Net implements
// it; any network that does not (or whose StaticOracle reports false
// because its trigger can still fire) is served by whichever client
// holds its shard's token instead.
type staticServer interface {
	StaticOracle() (*statictree.DistIndex, bool)
}

// request is one unit of work a client publishes to a shard it found
// busy. It carries the client's attempt sequence number, so a reply that
// arrives after its deadline can be told apart from the reply being
// awaited. The reply channel is client-owned and reused across requests,
// so the closed-loop hot path allocates nothing per request.
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

// response is the reply to one request.
type response struct {
	cost   sim.Cost
	seq    uint64
	shard  int32
	status uint8
}

// shard owns one partition of the node space: a private network instance
// and the token that grants the single-writer right to it. Whoever holds
// the token — a client serving its own request, or a stall sleeper — is
// the only routine that may touch the network, so all self-adjustment
// (rotations, trigger state, demand windows, churn scratch) happens
// without any lock on network state (the single-writer rule, DESIGN.md
// §11). The token is one atomic word, state: its low bit is set while
// the token is held, and the rest counts requests announced on ch minus
// requests taken off it by past holders. A client that finds the word
// zero takes the token with one CAS; one that finds it otherwise
// publishes its request on ch, announces it, and takes the token itself
// if the announcement finds it free. The holder serves every published
// request before it lets go (flat combining). Frozen shards additionally
// carry their distance oracle; clients serve those without the token.
// When a fault plan is armed every shard — frozen included — is served
// under its token, and the holder also checkpoints, injects the scripted
// crashes and stalls, and recovers by snapshot+replay (DESIGN.md §12).
type shard struct {
	id     int
	nodes  int
	net    sim.Network
	oracle *statictree.DistIndex // non-nil: frozen, clients serve lock-free
	state  atomic.Int64          // the token word: see tokenHeld
	ch     chan request          // requests published while the token was held
	// received counts the requests the current holder took off ch; the
	// release retires them from state. Holder-private, like the network.
	received int64

	// Fault state, token-holder-private except stale. plan is nil when
	// faults are disarmed, and then nothing below is used.
	plan          *FaultPlan
	stop          <-chan struct{} // closed when the pool halts; ends a stall
	sleepers      *sync.WaitGroup // running stall sleepers, which Run waits for
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
	// index, so clients may keep querying one they loaded while the
	// holder moves on.
	stale atomic.Pointer[statictree.DistIndex]

	faults FaultStats // shard-side ledger slice (crashes, recoveries, checkpoints, replays, stalls, rejections)
}

// serve is one step of the shard's serve sequence; the caller holds the
// token. The order in which holders call it defines the shard's local
// request sequence — the sequence the sequential-equivalence property
// replays. The fault plan is consulted at two fixed points only: the
// down/recovery check before the serve, and the replay-log append plus
// checkpoint/event boundary after it. serve reports whether a scripted
// stall passed the token to a sleeper, after which the caller no longer
// holds it.
func (s *shard) serve(u, v int) (response, bool) {
	if s.down && !s.recover() {
		s.faults.Rejected++
		return response{shard: int32(s.id), status: statusDown}, false
	}
	resp := response{cost: s.net.Serve(u, v), shard: int32(s.id)}
	return resp, s.plan != nil && s.afterServe(u, v)
}

// The token word. state is tokenHeld while the token is held, plus
// tokenAnnounce times the publications announced on ch minus the
// requests past holders took off it. A publisher announces after its
// send, so a positive word with the held bit clear means a request is
// waiting on ch with nobody to serve it.
const (
	tokenHeld     = 1 // low bit: the token is held
	tokenAnnounce = 2 // one announced publication
)

// acquire takes a free, idle token: one CAS, and no channel operation.
func (s *shard) acquire() bool { return s.state.CompareAndSwap(0, tokenHeld) }

// announce counts a request the caller has just published on ch and
// reports whether the caller took the token, because the announcement
// found it free; the caller then serves the queue. If it found the token
// held, that holder sees the announcement when it lets go.
func (s *shard) announce() bool {
	return s.claim(s.state.Add(tokenAnnounce))
}

// release lets the token go, retiring the requests this hold took off
// ch, and reports whether the caller took it back: it does when the
// count shows a request announced after the holder last found ch empty
// and nobody else has taken the token since. With an empty queue that is
// one atomic add.
func (s *shard) release() bool {
	r := s.received
	s.received = 0
	return s.claim(s.state.Add(-tokenHeld - tokenAnnounce*r))
}

// claim takes the token while st, the latest state, shows it free with a
// request announced and not yet received.
func (s *shard) claim(st int64) bool {
	for st&tokenHeld == 0 && st > 0 {
		if s.state.CompareAndSwap(st, st|tokenHeld) {
			return true
		}
		st = s.state.Load()
	}
	return false
}

// serveOwn serves the holder's own request, then every published one,
// and lets the token go.
func (s *shard) serveOwn(u, v int) response {
	resp, slept := s.serve(u, v)
	if !slept {
		s.combine()
	}
	return resp
}

// combine serves every published request in channel order, replying to
// each, and then releases the token; the caller holds it. The receive
// that finds ch empty takes no lock. A request published after that
// receive is announced after it, and the release and the announcement
// are read-modify-writes of one word, so one sees the other. If the
// release comes second, it counts the announcement and the holder takes
// the token back — unless a request taken off ch before its own
// publisher announced offsets the count, and then that publisher's
// announcement, still to come, finds the token free and takes it. If
// the announcement comes second, it finds the token free and the
// publisher takes it (DESIGN.md §11). A stall ends the pass: the sleeper
// holds the token and combines when it wakes.
func (s *shard) combine() {
	for {
		select {
		case rq := <-s.ch:
			s.received++
			resp, slept := s.serve(rq.u, rq.v)
			resp.seq = rq.seq
			rq.reply <- resp
			if slept {
				return
			}
		default:
			if !s.release() {
				return
			}
		}
	}
}

// sleep holds the token through a scripted stall: it waits until the
// stall ends or the pool halts, then serves what was published meanwhile
// and lets go like any holder. It runs on its own goroutine so that the
// client whose serve hit the stall point returns at once — it may be the
// only client, and then it is the one that halts the pool when its budget
// is spent.
func (s *shard) sleep(d time.Duration) {
	defer s.sleepers.Done()
	t := time.NewTimer(d)
	select {
	case <-t.C:
	case <-s.stop:
		t.Stop()
	}
	s.combine()
}

// checkpoint snapshots the shard's full cost-relevant network state and
// truncates the replay log (the new checkpoint supersedes it). The
// CheckpointInto error path is unreachable: Run rejects
// non-checkpointable networks before any client starts.
func (s *shard) checkpoint() {
	if err := s.recov.CheckpointInto(&s.cp); err != nil {
		panic(fmt.Sprintf("serve: shard %d checkpoint failed after Run-time validation: %v", s.id, err))
	}
	s.faults.Checkpoints++
	s.wal = s.wal[:0]
}

// crash loses the shard's in-memory network state, so the holder restores
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
// boundary loses nothing and replays nothing. It reports whether a stall
// fired, which hands the token to a new sleeper goroutine.
func (s *shard) afterServe(u, v int) bool {
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
			s.sleepers.Add(1)
			go s.sleep(ev.Stall)
			return true
		}
	}
	return false
}
