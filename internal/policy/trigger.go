package policy

import "fmt"

// Trigger decides when a policy net adjusts. Observe is called exactly
// once per served request (self-loops excluded) with the request's
// routing cost and reports whether the composed Adjuster runs now;
// Reset is called after every completed adjustment (successful or
// failed), so accumulating triggers start a fresh measurement stretch.
//
// Triggers are stateful and belong to exactly one Net; compose a fresh
// instance per network.
type Trigger interface {
	// Name identifies the trigger, parameters included, in composition
	// labels (e.g. "alpha(2000)").
	Name() string
	// Observe folds one served request into the trigger state and
	// reports whether to adjust now.
	Observe(dist int64) bool
	// Reset is called after every adjustment.
	Reset()
}

// StatefulTrigger is the checkpoint surface of triggers that accumulate
// state between adjustments. AppendState appends the trigger's mutable
// state (never its parameters) to dst and returns the extended slice;
// RestoreState overwrites the mutable state from a slice produced by
// AppendState on a trigger with identical parameters. The two are exact
// inverses: restore followed by the same request stream fires at
// bit-identical points. Stateless triggers (Always, Never) simply don't
// implement the interface; Net.CheckpointInto treats them as empty.
type StatefulTrigger interface {
	Trigger
	// AppendState appends the mutable trigger state to dst.
	AppendState(dst []int64) []int64
	// RestoreState replaces the mutable trigger state with a state
	// captured by AppendState. It rejects a slice of the wrong length
	// (a checkpoint from a differently-shaped trigger).
	RestoreState(src []int64) error
}

// Always fires on every request: the fully reactive regime of the
// paper's online networks.
func Always() Trigger { return alwaysTrigger{} }

type alwaysTrigger struct{}

func (alwaysTrigger) Name() string       { return "always" }
func (alwaysTrigger) Observe(int64) bool { return true }
func (alwaysTrigger) Reset()             {}

// Never never fires: the topology is frozen and the composition behaves
// as a static network (and, when tree-backed, has a StaticOracle).
func Never() Trigger { return neverTrigger{} }

type neverTrigger struct{}

func (neverTrigger) Name() string       { return "never" }
func (neverTrigger) Observe(int64) bool { return false }
func (neverTrigger) Reset()             {}

// EveryM fires on every m-th served request since the last adjustment
// (EveryM(1) is Always). It panics if m < 1; parameter validation
// belongs to the spec layer, so a bad m here is a programming error.
func EveryM(m int64) Trigger {
	if m < 1 {
		panic(fmt.Sprintf("policy: EveryM period must be >= 1, got %d", m))
	}
	return &everyTrigger{m: m}
}

type everyTrigger struct{ m, seen int64 }

func (t *everyTrigger) Name() string { return fmt.Sprintf("every(%d)", t.m) }
func (t *everyTrigger) Observe(int64) bool {
	t.seen++
	return t.seen >= t.m
}
func (t *everyTrigger) Reset() { t.seen = 0 }

func (t *everyTrigger) AppendState(dst []int64) []int64 { return append(dst, t.seen) }
func (t *everyTrigger) RestoreState(src []int64) error {
	if len(src) != 1 {
		return fmt.Errorf("policy: every-trigger state has %d words, want 1", len(src))
	}
	t.seen = src[0]
	return nil
}

// Alpha fires once the routing cost accumulated since the last
// adjustment reaches alpha — the partially reactive regime of the lazy
// self-adjusting networks ([13] in the paper). It panics if alpha < 1.
func Alpha(alpha int64) Trigger { return AlphaHysteresis(alpha, 0) }

// AlphaHysteresis is Alpha with a re-arm delay: after an adjustment the
// trigger stays quiet until at least cooldown further requests have been
// served, even if the cost threshold is crossed earlier. This damps
// rebuild thrashing on hot bursts whose cost spikes past alpha within a
// handful of requests. The trigger starts armed: the cooldown only
// applies between adjustments, never to the first one. It panics if
// alpha < 1 or cooldown < 0.
func AlphaHysteresis(alpha, cooldown int64) Trigger {
	if alpha < 1 {
		panic(fmt.Sprintf("policy: Alpha threshold must be >= 1, got %d", alpha))
	}
	if cooldown < 0 {
		panic(fmt.Sprintf("policy: Alpha cooldown must be >= 0, got %d", cooldown))
	}
	// since starts at cooldown so the initial stretch counts as armed.
	return &alphaTrigger{alpha: alpha, cooldown: cooldown, since: cooldown}
}

type alphaTrigger struct {
	alpha, cooldown int64
	acc, since      int64 // cost and requests since the last adjustment
}

func (t *alphaTrigger) Name() string {
	if t.cooldown > 0 {
		return fmt.Sprintf("alpha(%d,cd=%d)", t.alpha, t.cooldown)
	}
	return fmt.Sprintf("alpha(%d)", t.alpha)
}
func (t *alphaTrigger) Observe(dist int64) bool {
	t.acc += dist
	t.since++
	return t.acc >= t.alpha && t.since >= t.cooldown
}
func (t *alphaTrigger) Reset() { t.acc, t.since = 0, 0 }

func (t *alphaTrigger) AppendState(dst []int64) []int64 { return append(dst, t.acc, t.since) }
func (t *alphaTrigger) RestoreState(src []int64) error {
	if len(src) != 2 {
		return fmt.Errorf("policy: alpha-trigger state has %d words, want 2", len(src))
	}
	t.acc, t.since = src[0], src[1]
	return nil
}

// First fires on each of the first m served requests and never again:
// the network self-adjusts through a warmup prefix and then freezes
// (frozen-after-warmup). It panics if m < 1.
func First(m int64) Trigger {
	if m < 1 {
		panic(fmt.Sprintf("policy: First prefix must be >= 1, got %d", m))
	}
	return &firstTrigger{m: m}
}

type firstTrigger struct{ m, seen int64 }

func (t *firstTrigger) Name() string { return fmt.Sprintf("first(%d)", t.m) }
func (t *firstTrigger) Observe(int64) bool {
	t.seen++
	return t.seen <= t.m
}

// Reset deliberately keeps the lifetime request count: the warmup prefix
// is measured over the whole trace, not per adjustment.
func (t *firstTrigger) Reset() {}

func (t *firstTrigger) AppendState(dst []int64) []int64 { return append(dst, t.seen) }
func (t *firstTrigger) RestoreState(src []int64) error {
	if len(src) != 1 {
		return fmt.Errorf("policy: first-trigger state has %d words, want 1", len(src))
	}
	t.seen = src[0]
	return nil
}
