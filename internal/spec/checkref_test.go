package spec

import (
	"fmt"

	"github.com/ksan-net/ksan/internal/workload"
)

// This file keeps the def checks as they were before each kind registered
// the fields it reads, as references for check_test.go, which compares
// accept and reject over enumerated defs. They are verbatim except for
// their names: a ref prefix, PolicyDef.check and FaultSpec.check made
// functions, the lazy and csv check closures named, and refPhasedCheck
// checking its phases with refTraceCheck.

// refTraceCheck dispatches a trace def to its kind's reference check.
func refTraceCheck(d TraceDef) error {
	switch d.Kind {
	case "uniform", "hpc", "projector", "facebook":
		return refGenCheck(d.Kind, false, false)(d)
	case "temporal":
		return refGenCheck("temporal", true, false)(d)
	case "zipf", "latest":
		return refSpreadCheck(d.Kind, workload.ZipfSpread)(d)
	case "exponential":
		return refSpreadCheck("exponential", workload.ExponentialSpread)(d)
	case "hotspot":
		return refHotspotCheck(d)
	case "sequential":
		return refSequentialCheck(d)
	case "histogram":
		return refHistogramCheck(d)
	case "csv":
		return refCSVCheck(d)
	case "phased":
		return refPhasedCheck(d)
	}
	return fmt.Errorf("spec: unknown trace kind %q", d.Kind)
}

// refNetworkCheck is what NetworkDef.Spec checked before: the
// kind's check, then the policy against the kind's adjusters.
func refNetworkCheck(d NetworkDef) error {
	check, adjusters := refNeedK(d.Kind), treeAdjusterNames
	switch d.Kind {
	case "kary", "full", "centroid-tree", "uniform-opt":
	case "centroid":
		adjusters = triggerOnlyAdjusters
	case "splaynet":
		check, adjusters = refNoParams("splaynet"), triggerOnlyAdjusters
	case "lazy":
		check = refLazyCheck
	default:
		return fmt.Errorf("spec: unknown network kind %q", d.Kind)
	}
	if err := check(d); err != nil {
		return err
	}
	if d.Policy != nil {
		return refPolicyCheck(d.Policy, d.Kind, adjusters...)
	}
	return nil
}

// refPolicyTriggers and policyAdjusters list the registered names for error
// messages.
var refPolicyTriggers = []string{"always", "never", "every", "first", "alpha"}

// refPolicyCheck validates the trigger and its parameters (strict both ways, like
// the kind checks: set-but-unread parameters are rejected) and that the
// adjuster is one the kind's topology supports.
func refPolicyCheck(pd *PolicyDef, kind string, adjusters ...string) error {
	switch pd.Trigger {
	case "always", "never":
		if pd.M != 0 || pd.Alpha != 0 || pd.Cooldown != 0 {
			return fmt.Errorf("spec: policy trigger %q takes no parameters, got m=%d alpha=%d cooldown=%d",
				pd.Trigger, pd.M, pd.Alpha, pd.Cooldown)
		}
	case "every", "first":
		if pd.M < 1 {
			return fmt.Errorf("spec: policy trigger %q needs m >= 1, got %d", pd.Trigger, pd.M)
		}
		if pd.Alpha != 0 || pd.Cooldown != 0 {
			return fmt.Errorf("spec: policy trigger %q does not read alpha/cooldown (got %d/%d)",
				pd.Trigger, pd.Alpha, pd.Cooldown)
		}
	case "alpha":
		if pd.Alpha < 1 {
			return fmt.Errorf("spec: policy trigger \"alpha\" needs alpha >= 1, got %d", pd.Alpha)
		}
		if pd.M != 0 {
			return fmt.Errorf("spec: policy trigger \"alpha\" does not read m (got %d)", pd.M)
		}
		if pd.Cooldown < 0 {
			return fmt.Errorf("spec: policy trigger \"alpha\" needs cooldown >= 0, got %d", pd.Cooldown)
		}
	default:
		return fmt.Errorf("spec: unknown policy trigger %q (registered: %v)", pd.Trigger, refPolicyTriggers)
	}
	found := false
	for _, a := range adjusters {
		if a == pd.Adjuster {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("spec: network kind %q supports policy adjusters %v, got %q", kind, adjusters, pd.Adjuster)
	}
	if frozen := pd.Trigger == "never"; frozen != (pd.Adjuster == "none") {
		return fmt.Errorf("spec: policy adjuster \"none\" pairs exactly with trigger \"never\" (got %s × %s)",
			pd.Trigger, pd.Adjuster)
	}
	return nil
}

// Builtin checks are strict both ways: required parameters must be in
// range AND parameters the kind does not read must stay zero — a set-but-
// ignored field means the document describes a different experiment than
// the one that would run, the same failure mode DisallowUnknownFields
// guards against at the JSON layer.

func refNeedK(kind string) func(NetworkDef) error {
	return func(d NetworkDef) error {
		if d.K < 2 {
			return fmt.Errorf("spec: network kind %q needs k >= 2, got %d", kind, d.K)
		}
		if d.Alpha != 0 {
			return fmt.Errorf("spec: network kind %q does not read alpha (got %d)", kind, d.Alpha)
		}
		return nil
	}
}

func refNoParams(kind string) func(NetworkDef) error {
	return func(d NetworkDef) error {
		if d.K != 0 || d.Alpha != 0 {
			return fmt.Errorf("spec: network kind %q takes no parameters, got k=%d alpha=%d", kind, d.K, d.Alpha)
		}
		return nil
	}
}

// refGenCheck validates the shared generator parameters (every builtin trace
// generator needs at least two nodes to form a self-loop-free pair) and
// rejects set-but-unread ones: wantP/wantS mark the kinds that read the
// temporal parameter p and the skew parameter s. Only hotspot reads
// hot/hotopn and only phased reads phases; both have their own checks, so
// refGenCheck rejects those fields outright.
func refGenCheck(kind string, wantP, wantS bool) func(TraceDef) error {
	return func(d TraceDef) error {
		if d.N < 2 {
			return fmt.Errorf("spec: trace kind %q needs n >= 2, got %d", kind, d.N)
		}
		if d.M < 1 {
			return fmt.Errorf("spec: trace kind %q needs m >= 1, got %d", kind, d.M)
		}
		if d.Path != "" {
			return fmt.Errorf("spec: trace kind %q does not read path (got %q)", kind, d.Path)
		}
		if d.Hot != 0 || d.HotOpn != 0 {
			return fmt.Errorf("spec: trace kind %q does not read hot/hotopn (got %v/%v)", kind, d.Hot, d.HotOpn)
		}
		if len(d.Phases) != 0 {
			return fmt.Errorf("spec: trace kind %q does not read phases (got %d)", kind, len(d.Phases))
		}
		switch {
		case wantP && (d.P < 0 || d.P >= 1):
			return fmt.Errorf("spec: trace kind %q needs p in [0,1), got %v", kind, d.P)
		case !wantP && d.P != 0:
			return fmt.Errorf("spec: trace kind %q does not read p (got %v)", kind, d.P)
		}
		switch {
		case wantS && d.S <= 0:
			return fmt.Errorf("spec: trace kind %q needs s > 0, got %v", kind, d.S)
		case !wantS && d.S != 0:
			return fmt.Errorf("spec: trace kind %q does not read s (got %v)", kind, d.S)
		}
		return nil
	}
}

// refSpreadCheck is refGenCheck for a kind whose skew s can put nearly all of
// an endpoint draw on one node, which would make the kind redraw
// self-loops forever; spread is the workload's test of that.
func refSpreadCheck(kind string, spread func(n int, s float64) error) func(TraceDef) error {
	check := refGenCheck(kind, false, true)
	return func(d TraceDef) error {
		if err := check(d); err != nil {
			return err
		}
		if err := spread(d.N, d.S); err != nil {
			return fmt.Errorf("spec: trace kind %q: %w", kind, err)
		}
		return nil
	}
}

// refHotspotCheck is refGenCheck for the one kind that reads hot/hotopn, with
// the set-size and spread constraints HotspotGen would otherwise panic on.
func refHotspotCheck(d TraceDef) error {
	if d.N < 2 {
		return fmt.Errorf("spec: trace kind \"hotspot\" needs n >= 2, got %d", d.N)
	}
	if d.M < 1 {
		return fmt.Errorf("spec: trace kind \"hotspot\" needs m >= 1, got %d", d.M)
	}
	if d.P != 0 || d.S != 0 || d.Path != "" || len(d.Phases) != 0 {
		return fmt.Errorf("spec: trace kind \"hotspot\" reads only n/m/hot/hotopn/seed (got p=%v s=%v path=%q phases=%d)", d.P, d.S, d.Path, len(d.Phases))
	}
	if d.HotOpn <= 0 || d.HotOpn >= 1 {
		return fmt.Errorf("spec: trace kind \"hotspot\" needs hotopn in (0,1), got %v", d.HotOpn)
	}
	if hot := int(d.Hot * float64(d.N)); d.Hot <= 0 || d.Hot >= 1 || hot < 1 || hot >= d.N {
		return fmt.Errorf("spec: trace kind \"hotspot\" needs hot in (0,1) with hot·n in 1..n-1, got hot=%v n=%d", d.Hot, d.N)
	}
	if err := workload.HotspotSpread(d.N, d.Hot, d.HotOpn); err != nil {
		return fmt.Errorf("spec: trace kind \"hotspot\": %w", err)
	}
	return nil
}

// refSequentialCheck: the all-pairs sweep is fully deterministic, so a set
// seed (or any distribution parameter) describes an experiment the kind
// cannot run.
func refSequentialCheck(d TraceDef) error {
	if d.N < 2 {
		return fmt.Errorf("spec: trace kind \"sequential\" needs n >= 2, got %d", d.N)
	}
	if d.M < 1 {
		return fmt.Errorf("spec: trace kind \"sequential\" needs m >= 1, got %d", d.M)
	}
	if d.P != 0 || d.S != 0 || d.Seed != 0 || d.Path != "" || d.Hot != 0 || d.HotOpn != 0 || len(d.Phases) != 0 {
		return fmt.Errorf("spec: trace kind \"sequential\" reads only n and m (got p=%v s=%v seed=%d path=%q hot=%v hotopn=%v phases=%d)",
			d.P, d.S, d.Seed, d.Path, d.Hot, d.HotOpn, len(d.Phases))
	}
	return nil
}

// refHistogramCheck: node count and weights come from the file, so n must
// stay zero like csv's.
func refHistogramCheck(d TraceDef) error {
	if d.Path == "" {
		return fmt.Errorf("spec: trace kind \"histogram\" needs a path")
	}
	if d.M < 1 {
		return fmt.Errorf("spec: trace kind \"histogram\" needs m >= 1, got %d", d.M)
	}
	if d.N != 0 || d.P != 0 || d.S != 0 || d.Hot != 0 || d.HotOpn != 0 || len(d.Phases) != 0 {
		return fmt.Errorf("spec: trace kind \"histogram\" reads only path/m/seed/name; n comes from the file (got n=%d p=%v s=%v hot=%v hotopn=%v phases=%d)",
			d.N, d.P, d.S, d.Hot, d.HotOpn, len(d.Phases))
	}
	return nil
}

// refPhasedCheck validates the phase list recursively: every phase is a
// complete def of a known-length, non-nested kind, all phases agree on
// the node count, and the outer def carries nothing but name and phases
// (its label and length are derived).
func refPhasedCheck(d TraceDef) error {
	if len(d.Phases) == 0 {
		return fmt.Errorf("spec: trace kind \"phased\" needs at least one phase")
	}
	if d.N != 0 || d.M != 0 || d.P != 0 || d.S != 0 || d.Seed != 0 || d.Path != "" || d.Hot != 0 || d.HotOpn != 0 {
		return fmt.Errorf("spec: trace kind \"phased\" reads only name and phases; n/m and all parameters live on the phase defs (got n=%d m=%d p=%v s=%v seed=%d path=%q hot=%v hotopn=%v)",
			d.N, d.M, d.P, d.S, d.Seed, d.Path, d.Hot, d.HotOpn)
	}
	n := 0
	for i, pd := range d.Phases {
		switch pd.Kind {
		case "phased":
			return fmt.Errorf("spec: phases[%d]: phased traces do not nest", i)
		case "csv":
			return fmt.Errorf("spec: phases[%d]: kind \"csv\" cannot be a phase (its length is not declared, so the phase duration is unknowable)", i)
		}
		if err := refTraceCheck(pd); err != nil {
			return fmt.Errorf("spec: phases[%d]: %w", i, err)
		}
		if i == 0 {
			n = pd.N
		} else if pd.N != n {
			return fmt.Errorf("spec: phases[%d]: node count %d differs from phase 0's %d (one network serves the whole stream)", i, pd.N, n)
		}
	}
	return nil
}

// refLazyCheck is the lazy kind's check.
func refLazyCheck(d NetworkDef) error {
	if d.K < 2 {
		return fmt.Errorf("spec: network kind \"lazy\" needs k >= 2, got %d", d.K)
	}
	if d.Alpha < 1 {
		return fmt.Errorf("spec: network kind \"lazy\" needs alpha >= 1, got %d", d.Alpha)
	}
	if d.Policy != nil {
		return fmt.Errorf("spec: network kind \"lazy\" is the canonical kary × (alpha, rebuild-wb) composition and takes no policy; use kind \"kary\" with an explicit policy instead")
	}
	return nil
}

// refCSVCheck is the csv kind's check.
func refCSVCheck(d TraceDef) error {
	if d.Path == "" {
		return fmt.Errorf("spec: trace kind \"csv\" needs a path")
	}
	if d.N != 0 || d.M != 0 || d.P != 0 || d.S != 0 || d.Seed != 0 || d.Hot != 0 || d.HotOpn != 0 || len(d.Phases) != 0 {
		return fmt.Errorf("spec: trace kind \"csv\" reads only path and name; everything else comes from the file (got n=%d m=%d p=%v s=%v seed=%d hot=%v hotopn=%v phases=%d)",
			d.N, d.M, d.P, d.S, d.Seed, d.Hot, d.HotOpn, len(d.Phases))
	}
	return nil
}

// refFaultCheck validates the document-level domains. Shard ranges and per-shard
// schedule ordering depend on the resolved shard count, so they stay
// with serve.FaultPlan's own validation at Run start.
func refFaultCheck(f *FaultSpec) error {
	if f.CheckpointEvery < 0 {
		return fmt.Errorf("spec: faults: checkpoint_every %d < 0", f.CheckpointEvery)
	}
	switch f.Degraded {
	case "", "fail", "stale":
	default:
		return fmt.Errorf("spec: faults: unknown degraded mode %q (want \"fail\" or \"stale\")", f.Degraded)
	}
	if f.TimeoutMs < 0 || f.Retries < 0 || f.BackoffMs < 0 || f.BackoffCapMs < 0 {
		return fmt.Errorf("spec: faults: timeout_ms/retries/backoff_ms/backoff_cap_ms must be non-negative")
	}
	for i, ev := range f.Events {
		if ev.Shard < 0 {
			return fmt.Errorf("spec: faults: event %d: shard %d < 0", i, ev.Shard)
		}
		if ev.At < 1 {
			return fmt.Errorf("spec: faults: event %d: at %d; trigger points start at 1", i, ev.At)
		}
		switch ev.Kind {
		case "crash":
			if ev.RecoverAfter < -1 {
				return fmt.Errorf("spec: faults: event %d: recover_after %d < -1", i, ev.RecoverAfter)
			}
			if ev.StallMs != 0 {
				return fmt.Errorf("spec: faults: event %d: crash with stall_ms", i)
			}
		case "stall":
			if ev.StallMs <= 0 {
				return fmt.Errorf("spec: faults: event %d: stall without a positive stall_ms", i)
			}
			if ev.RecoverAfter != 0 {
				return fmt.Errorf("spec: faults: event %d: stall with recover_after", i)
			}
		default:
			return fmt.Errorf("spec: faults: event %d: unknown kind %q (want \"crash\" or \"stall\")", i, ev.Kind)
		}
	}
	return nil
}
