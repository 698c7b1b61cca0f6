// Package lazynet implements the partially reactive meta-algorithm the
// paper describes in its introduction (after Feder et al.'s lazy
// self-adjusting networks [13]): instead of adjusting after every request,
// the network stays static until the routing cost accumulated since the
// last reconfiguration reaches a threshold α; it then recomputes a
// demand-aware topology from the traffic observed in the meanwhile and
// swaps it in, paying the model's raw reconfiguration cost (the number of
// links added plus removed).
//
// Since the policy refactor the lazy network is the canonical composition
//
//	balanced k-ary tree × (policy.Alpha(α), policy.RebuildWeightBalanced)
//
// and Net is internal/policy's Net: the α-threshold is a Trigger, the
// demand-aware recomputation is an Adjuster, and variations — the exact
// DP builder, hysteresis, periodic instead of cost-triggered rebuilds —
// are other compositions over the same substrate rather than setters on
// this type (the former SetBuilder is gone; compose policy.Rebuild with
// statictree.Optimal instead). Failed rebuilds no longer vanish: the
// policy net counts them (FailedRebuilds) and keeps the last error
// (LastFailure), while the topology stays unchanged.
package lazynet

import (
	"fmt"

	"github.com/ksan-net/ksan/internal/core"
	"github.com/ksan-net/ksan/internal/policy"
)

// Builder computes a static demand-aware topology for a demand window.
type Builder = policy.Builder

// Net is a lazily self-adjusting k-ary search tree network.
type Net = policy.Net

// New constructs a lazy network with threshold alpha and the
// weight-balanced rebuild subroutine. The initial topology is the full
// k-ary tree.
func New(n, k int, alpha int64) (*Net, error) {
	if alpha <= 0 {
		return nil, fmt.Errorf("lazynet: threshold must be positive, got %d", alpha)
	}
	t, err := core.NewBalanced(n, k)
	if err != nil {
		return nil, fmt.Errorf("lazynet: %w", err)
	}
	net, err := policy.New(fmt.Sprintf("lazy %d-ary net (α=%d)", k, alpha), t,
		policy.Alpha(alpha), policy.RebuildWeightBalanced("weight-balanced"))
	if err != nil {
		return nil, fmt.Errorf("lazynet: %w", err)
	}
	return net, nil
}

// MustNew is New for known-good parameters.
func MustNew(n, k int, alpha int64) *Net {
	net, err := New(n, k, alpha)
	if err != nil {
		panic(err)
	}
	return net
}
