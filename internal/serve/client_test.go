package serve

import (
	"fmt"
	"testing"

	"github.com/ksan-net/ksan/internal/sim"
)

// TestAccountOutcomes pins how a request's two halves are booked, over
// every pair of half outcomes (ok, degraded, failed, not attempted), for
// same-shard and cross-shard requests, in the warmup and the measured
// region. A half counts on its shard only when it was served OK; the
// request is failed if a half failed or was never attempted, degraded if
// a half was stale-served, and healthy otherwise. A same-shard request
// has no destination half, so its second outcome must not matter.
func TestAccountOutcomes(t *testing.T) {
	outcomes := []uint8{outcomeOK, outcomeDegraded, outcomeFailed, outcomeSkipped}
	names := []string{"ok", "degraded", "failed", "skipped"}
	// crossClass[o1][o2] is a cross-shard request's class; a same-shard
	// request's is crossClass[o1][outcomeOK].
	crossClass := [4][4]string{
		{"healthy", "degraded", "failed", "failed"},
		{"degraded", "degraded", "failed", "failed"},
		{"failed", "failed", "failed", "failed"},
		{"failed", "failed", "failed", "failed"},
	}
	c1 := sim.Cost{Routing: 3, Adjust: 5}
	c2 := sim.Cost{Routing: 7, Adjust: 11}
	const lat = 42
	for _, cross := range []bool{false, true} {
		for _, warm := range []bool{false, true} {
			for _, o1 := range outcomes {
				for _, o2 := range outcomes {
					name := fmt.Sprintf("cross=%v/warm=%v/%s,%s", cross, warm, names[o1], names[o2])
					r := Route{S1: 0, Cross: cross}
					routing, adjust := c1.Routing, c1.Adjust
					class := crossClass[o1][outcomeOK]
					if cross {
						r.S2 = 1
						routing += InterShardHop + c2.Routing
						adjust += c2.Adjust
						class = crossClass[o1][o2]
					}
					a := clientAcc{perShard: make([]shardAcc, 2)}
					a.account(&r, c1, c2, o1, o2, warm, lat)

					wantShard := [2]int64{}
					if o1 == outcomeOK {
						wantShard[0]++
					}
					if cross && o2 == outcomeOK {
						wantShard[1]++
					}
					for sh, want := range wantShard {
						got := a.perShard[sh]
						if got.requests != want || got.hist.Count() != want {
							t.Errorf("%s: shard %d counts %d halves, %d in its histogram; want %d",
								name, sh, got.requests, got.hist.Count(), want)
						}
					}
					if o1 == outcomeOK && (a.perShard[0].routing != c1.Routing || a.perShard[0].adjust != c1.Adjust) {
						t.Errorf("%s: source shard booked %d/%d, want %d/%d", name,
							a.perShard[0].routing, a.perShard[0].adjust, c1.Routing, c1.Adjust)
					}

					want := clientAcc{}
					switch {
					case class == "failed":
						want.faults.FailedRequests = 1
					case class == "degraded":
						want.faults.DegradedRequests, want.faults.DegradedRouting = 1, routing
					case warm:
						want.warmRequests, want.warmRouting, want.warmAdjust = 1, routing, adjust
						if cross {
							want.warmCross = 1
						}
					default:
						want.requests, want.routing, want.adjust = 1, routing, adjust
						if cross {
							want.cross = 1
						}
					}
					if a.faults != want.faults {
						t.Errorf("%s: fault ledger %+v, want %+v", name, a.faults, want.faults)
					}
					if a.requests != want.requests || a.routing != want.routing || a.adjust != want.adjust || a.cross != want.cross {
						t.Errorf("%s: measured %d/%d/%d/%d, want %d/%d/%d/%d", name,
							a.requests, a.routing, a.adjust, a.cross, want.requests, want.routing, want.adjust, want.cross)
					}
					if a.warmRequests != want.warmRequests || a.warmRouting != want.warmRouting ||
						a.warmAdjust != want.warmAdjust || a.warmCross != want.warmCross {
						t.Errorf("%s: warmup %d/%d/%d/%d, want %d/%d/%d/%d", name,
							a.warmRequests, a.warmRouting, a.warmAdjust, a.warmCross,
							want.warmRequests, want.warmRouting, want.warmAdjust, want.warmCross)
					}
					if a.routingHist.Count() != want.requests || a.routingHist.Sum() != want.routing {
						t.Errorf("%s: routing histogram holds %d summing to %d, want %d summing to %d", name,
							a.routingHist.Count(), a.routingHist.Sum(), want.requests, want.routing)
					}
					if a.latencyHist.Count() != want.requests || a.latencyHist.Sum() != lat*want.requests {
						t.Errorf("%s: latency histogram holds %d summing to %d, want %d of %d", name,
							a.latencyHist.Count(), a.latencyHist.Sum(), want.requests, lat)
					}
				}
			}
		}
	}

	// An untimed healthy request observes no latency.
	a := clientAcc{perShard: make([]shardAcc, 1)}
	a.account(&Route{}, c1, sim.Cost{}, outcomeOK, outcomeSkipped, false, -1)
	if a.requests != 1 || a.latencyHist.Count() != 0 {
		t.Errorf("untimed request: %d measured, %d latency samples; want 1 and 0", a.requests, a.latencyHist.Count())
	}
}

// TestTokenWord walks the token word through the hand-offs DESIGN.md §11
// argues about, one step at a time on one goroutine: the uncontended
// acquire and release, an announcement the release sees, an
// announcement that sees the release, and a request taken off the
// channel before its publisher announced, whose late announcement must
// claim the token for a request the release left behind.
func TestTokenWord(t *testing.T) {
	s := &shard{ch: make(chan request, 2)}
	take := func() { <-s.ch; s.received++ }
	idle := func(step string) {
		t.Helper()
		if st := s.state.Load(); st != 0 || len(s.ch) != 0 {
			t.Fatalf("%s: word %d with %d requests on the channel, want an idle token", step, st, len(s.ch))
		}
	}

	if !s.acquire() || s.acquire() {
		t.Fatal("acquire: want the free token taken once")
	}
	if s.release() {
		t.Fatal("release of an idle hold took the token back")
	}
	idle("uncontended")

	// Announced while held: the release counts it and takes the token back.
	s.acquire()
	s.ch <- request{}
	if s.announce() {
		t.Fatal("an announcement took a held token")
	}
	if !s.release() {
		t.Fatal("the release missed an announced request")
	}
	take()
	if s.release() {
		t.Fatal("the release took the token back with nothing announced")
	}
	idle("announced while held")

	// Announced after the release: the announcement takes the token.
	s.acquire()
	s.release()
	s.ch <- request{}
	if !s.announce() {
		t.Fatal("an announcement found the token free and did not take it")
	}
	take()
	s.release()
	idle("announced after the release")

	// P2's request is taken off the channel before P2 announces; P1
	// publishes after the holder's last receive and announces while it
	// holds. The release sees P1's announcement offset by P2's early
	// receive and lets go; P2's announcement must then take the token.
	s.acquire()
	s.ch <- request{} // P2
	take()
	s.ch <- request{} // P1
	if s.announce() {
		t.Fatal("P1's announcement took a held token")
	}
	if s.release() {
		t.Fatal("the release took the token back on an offset count")
	}
	if !s.announce() {
		t.Fatal("P2's late announcement left P1's request without a holder")
	}
	take()
	if s.release() {
		t.Fatal("the release took the token back with every announced request served")
	}
	idle("late announcement")
}
