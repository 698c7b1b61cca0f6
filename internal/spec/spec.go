// Package spec is the declarative, serializable experiment layer: it turns
// the engine's closure-based grid inputs (engine.NetworkSpec, whose Make is
// a Go function, and engine.TraceSpec, whose Reqs the caller must
// pre-materialize) into data. A NetworkDef or TraceDef is a small JSON
// document naming a registered kind plus its parameters; an Experiment
// composes the two sides with serializable engine options into a complete
// grid description that can be written to a file, diffed, shipped, and
// re-run bit-identically (every builtin resolves through the same
// deterministic constructors and generators the hand-written paper suite
// uses).
//
// The taxonomy mirrors the input/algorithm/metric framing of the
// self-adjusting-networks program (Avin & Schmid, "Toward Demand-Aware
// Networking"): network defs are the algorithms, trace defs the inputs,
// and the engine options select the metrics surface. Both sides are open:
// RegisterNetwork and RegisterTrace add new kinds at init time, so
// downstream code can make its own designs and workloads file-addressable.
package spec

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"github.com/ksan-net/ksan/internal/centroidnet"
	"github.com/ksan-net/ksan/internal/core"
	"github.com/ksan-net/ksan/internal/engine"
	"github.com/ksan-net/ksan/internal/policy"
	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/splaynet"
	"github.com/ksan-net/ksan/internal/statictree"
	"github.com/ksan-net/ksan/internal/workload"
)

// NetworkDef declares one network design by registered kind. The builtin
// kinds and the parameters they read:
//
//	kary      — the k-ary SplayNet (K ≥ 2)
//	centroid  — the centroid-based (K+1)-SplayNet (K ≥ 2)
//	splaynet  — the binary SplayNet baseline (no parameters)
//	lazy      — the partially reactive network (K ≥ 2, Alpha > 0)
//	full      — the static weakly-complete k-ary tree (K ≥ 2)
//	centroid-tree — the static centroid k-ary tree (K ≥ 2)
//	uniform-opt   — the static uniform-optimal k-ary tree (K ≥ 2)
//
// Every builtin kind except lazy additionally accepts a Policy: the kind
// then only names the topology family, and the policy picks the point of
// the trigger × adjuster plane served on it (see PolicyDef). Without a
// policy each kind is its canonical composition — kary/centroid/splaynet
// are fully reactive (always × their splay), the static kinds are frozen
// (never × none). The lazy kind is itself the canonical
// kary × (alpha, rebuild-wb) composition, so it rejects a policy; spell
// variations as kary defs with an explicit policy.
//
// Name optionally overrides the grid label (progress events) and the
// network's report name.
type NetworkDef struct {
	Kind   string     `json:"kind"`
	Name   string     `json:"name,omitempty"`
	K      int        `json:"k,omitempty"`
	Alpha  int64      `json:"alpha,omitempty"`
	Policy *PolicyDef `json:"policy,omitempty"`
}

// PolicyDef selects a trigger × adjuster composition for a network def's
// topology. Triggers and the parameters they read:
//
//	always — adjust after every request (no parameters)
//	never  — frozen topology (no parameters)
//	every  — adjust on every M-th request (M ≥ 1)
//	first  — adjust on each of the first M requests, then freeze (M ≥ 1)
//	alpha  — adjust once the routing cost since the last adjustment
//	         reaches Alpha (Alpha ≥ 1; Cooldown ≥ 0 adds a re-arm delay
//	         of that many requests, the hysteresis damping)
//
// Adjusters (availability depends on the kind — the repertoire is a
// property of the topology):
//
//	splay       — full k-splay (kary and the static-tree kinds), the
//	              centroid repertoire (centroid), or the binary double
//	              splay (splaynet)
//	semi-splay  — single k-semi-splay steps (kary and static-tree kinds)
//	rebuild-wb  — weight-balanced whole-topology rebuild from the
//	              observed demand window (kary and static-tree kinds)
//	rebuild-opt — exact-DP rebuild, small networks (same kinds)
//	none        — no adjustment; exactly paired with trigger "never"
//	              (a firing trigger with no adjuster, or a frozen
//	              trigger with one, describes a different experiment
//	              than the one that would run, so both are rejected)
type PolicyDef struct {
	Trigger  string `json:"trigger"`
	M        int64  `json:"m,omitempty"`
	Alpha    int64  `json:"alpha,omitempty"`
	Cooldown int64  `json:"cooldown,omitempty"`
	Adjuster string `json:"adjuster"`
}

// TraceDef declares one workload request stream by registered kind. The
// builtin kinds and the parameters they read (all except csv and phased
// require N ≥ 2 and M ≥ 1):
//
//	uniform     — UniformGen(N, M, Seed)
//	temporal    — TemporalGen(N, M, P, Seed), P in [0,1)
//	hpc         — HPCGen(N, M, Seed)
//	projector   — ProjectorGen(N, M, Seed)
//	facebook    — FacebookGen(N, M, Seed)
//	zipf        — ZipfGen(N, M, S, Seed), S > 0
//	hotspot     — HotspotGen(N, M, Hot, HotOpn, Seed): a Hot fraction of
//	              the nodes receives a HotOpn fraction of the endpoint
//	              draws (both in (0,1), and Hot·N must leave both sets
//	              non-empty)
//	exponential — ExponentialGen(N, M, S, Seed), S > 0 the decay rate
//	sequential  — SequentialGen(N, M): the deterministic all-pairs sweep;
//	              reads no seed
//	histogram   — HistogramGen over explicit node weights read from Path
//	              (one weight per line; N comes from the file), plus M
//	              and Seed
//	latest      — LatestGen(N, M, S, Seed), S > 0 the recency skew
//	csv         — a trace file written by workload.WriteCSV, streamed from
//	              Path (N comes from the file; length is unknown up front)
//	phased      — the concatenation of Phases: each phase is a complete
//	              trace def of any non-phased, known-length kind whose M
//	              is the phase's duration; all phases must share one node
//	              count. Flash crowds, diurnal skew rotation and hot-set
//	              drift are phase lists (see EXPERIMENTS.md §A6).
//
// The zipf, hotspot, exponential, latest and histogram kinds redraw a
// request's destination until it differs from its source, so each also
// rejects parameters or weights that leave less than 2^-20 of an endpoint
// draw outside its heaviest node (workload.ZipfSpread and its siblings).
//
// Name optionally overrides the trace's report label.
type TraceDef struct {
	Kind   string     `json:"kind"`
	Name   string     `json:"name,omitempty"`
	N      int        `json:"n,omitempty"`
	M      int        `json:"m,omitempty"`
	P      float64    `json:"p,omitempty"`
	S      float64    `json:"s,omitempty"`
	Hot    float64    `json:"hot,omitempty"`
	HotOpn float64    `json:"hotopn,omitempty"`
	Seed   int64      `json:"seed,omitempty"`
	Path   string     `json:"path,omitempty"`
	Phases []TraceDef `json:"phases,omitempty"`
}

// EngineDef is the serializable subset of the engine's options. Zero
// values mean "engine default" (GOMAXPROCS workers, no warmup, no window,
// churn tracking off).
type EngineDef struct {
	Workers   int  `json:"workers,omitempty"`
	Warmup    int  `json:"warmup,omitempty"`
	Window    int  `json:"window,omitempty"`
	LinkChurn bool `json:"link_churn,omitempty"`
}

// Experiment is a complete grid description: every network × every trace,
// evaluated under the engine options. It is the unit of serialization —
// Encode/Decode round-trip it through JSON.
type Experiment struct {
	Name     string       `json:"name,omitempty"`
	Networks []NetworkDef `json:"networks"`
	Traces   []TraceDef   `json:"traces"`
	Engine   EngineDef    `json:"engine,omitempty"`
}

// NetworkBuilder resolves a def of its registered kind to a grid spec. It
// must validate the def's parameters eagerly and return a spec whose Make
// is cheap to call once per grid cell.
type NetworkBuilder func(NetworkDef) (engine.NetworkSpec, error)

// TraceBuilder resolves a def of its registered kind to a streaming
// request generator. It is called exactly once per Experiment resolution,
// however many grid cells share the trace: the returned Generator is the
// shared factory, and each cell takes its own independent pass over it
// (sound by the Generator contract — every Requests call owns its
// iteration state). Builders therefore must return deterministic
// generators; a generator with hidden mutable cursor state would make
// grid results depend on cell scheduling.
type TraceBuilder func(TraceDef) (workload.Generator, error)

var (
	regMu    sync.RWMutex
	networks = map[string]NetworkBuilder{}
	traces   = map[string]TraceBuilder{}
	trChecks = map[string]func(TraceDef) error{}
)

// RegisterNetwork adds a network kind. It panics on an empty kind, a nil
// builder, or a duplicate registration (like http.Handle and sql.Register,
// registration errors are programmer errors caught at init time).
func RegisterNetwork(kind string, build NetworkBuilder) {
	if kind == "" || build == nil {
		panic("spec: RegisterNetwork with empty kind or nil builder")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := networks[kind]; dup {
		panic(fmt.Sprintf("spec: network kind %q already registered", kind))
	}
	networks[kind] = build
}

// RegisterTrace adds a trace kind. It panics on an empty kind, a nil
// builder, or a duplicate registration.
func RegisterTrace(kind string, build TraceBuilder) {
	if kind == "" || build == nil {
		panic("spec: RegisterTrace with empty kind or nil builder")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := traces[kind]; dup {
		panic(fmt.Sprintf("spec: trace kind %q already registered", kind))
	}
	traces[kind] = build
}

// NetworkKinds returns the registered network kinds, sorted.
func NetworkKinds() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return sortedKeys(networks)
}

// TraceKinds returns the registered trace kinds, sorted.
func TraceKinds() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return sortedKeys(traces)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Spec resolves the def through the registry to the engine's grid input.
func (d NetworkDef) Spec() (engine.NetworkSpec, error) {
	regMu.RLock()
	build, ok := networks[d.Kind]
	regMu.RUnlock()
	if !ok {
		return engine.NetworkSpec{}, fmt.Errorf("spec: unknown network kind %q (registered: %v)", d.Kind, NetworkKinds())
	}
	ns, err := build(d)
	if err != nil {
		return engine.NetworkSpec{}, err
	}
	if d.Name != "" {
		ns.Name = d.Name
	}
	return ns, nil
}

// Resolve resolves the def through the registry to its streaming request
// generator; no requests are drawn (or materialized) until a consumer
// iterates the returned Generator.
func (d TraceDef) Resolve() (workload.Generator, error) {
	regMu.RLock()
	build, ok := traces[d.Kind]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("spec: unknown trace kind %q (registered: %v)", d.Kind, TraceKinds())
	}
	g, err := build(d)
	if err != nil {
		return nil, err
	}
	if d.Name != "" {
		g = workload.Relabel(g, d.Name)
	}
	return g, nil
}

// Materialize is Resolve followed by collecting the whole stream into a
// Trace: the in-memory convenience for consumers that need random access.
func (d TraceDef) Materialize() (workload.Trace, error) {
	g, err := d.Resolve()
	if err != nil {
		return workload.Trace{}, err
	}
	return workload.Collect(g)
}

// check validates a trace def without materializing it, where the kind
// registered a checker (all builtins do). Custom kinds without a checker
// validate at Materialize time.
func (d TraceDef) check() error {
	regMu.RLock()
	_, known := traces[d.Kind]
	chk := trChecks[d.Kind]
	regMu.RUnlock()
	if !known {
		return fmt.Errorf("spec: unknown trace kind %q (registered: %v)", d.Kind, TraceKinds())
	}
	if chk != nil {
		return chk(d)
	}
	return nil
}

// Validate checks the document is well-formed without materializing any
// trace: both sides non-empty, engine fields non-negative, every kind
// registered, and every builtin def's parameters in range.
func (x *Experiment) Validate() error {
	if len(x.Networks) == 0 {
		return fmt.Errorf("spec: experiment %q has no networks", x.Name)
	}
	if len(x.Traces) == 0 {
		return fmt.Errorf("spec: experiment %q has no traces", x.Name)
	}
	if x.Engine.Workers < 0 || x.Engine.Warmup < 0 || x.Engine.Window < 0 {
		return fmt.Errorf("spec: experiment %q has negative engine options %+v", x.Name, x.Engine)
	}
	for i, d := range x.Networks {
		if _, err := d.Spec(); err != nil {
			return fmt.Errorf("networks[%d]: %w", i, err)
		}
	}
	for j, d := range x.Traces {
		if err := d.check(); err != nil {
			return fmt.Errorf("traces[%d]: %w", j, err)
		}
	}
	return nil
}

// Options converts the serializable engine options into engine.Options.
func (d EngineDef) Options() []engine.Option {
	var opts []engine.Option
	if d.Workers > 0 {
		opts = append(opts, engine.WithWorkers(d.Workers))
	}
	if d.Warmup > 0 {
		opts = append(opts, engine.WithWarmup(d.Warmup))
	}
	if d.Window > 0 {
		opts = append(opts, engine.WithWindow(d.Window))
	}
	if d.LinkChurn {
		opts = append(opts, engine.WithLinkChurn(true))
	}
	return opts
}

// Resolve validates the document and turns it into the engine's grid
// inputs. Each trace def is resolved to its generator factory exactly
// once, however many grid cells (one per network) will serve it — the
// cells stream their own passes, so a grid holds one factory per trace
// instead of one materialized request slice per cell.
func (x *Experiment) Resolve() ([]engine.NetworkSpec, []engine.TraceSpec, []engine.Option, error) {
	if err := x.Validate(); err != nil {
		return nil, nil, nil, err
	}
	nets := make([]engine.NetworkSpec, len(x.Networks))
	for i, d := range x.Networks {
		ns, err := d.Spec()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("networks[%d]: %w", i, err)
		}
		nets[i] = ns
	}
	trs := make([]engine.TraceSpec, len(x.Traces))
	for j, d := range x.Traces {
		g, err := d.Resolve()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("traces[%d]: %w", j, err)
		}
		trs[j] = engine.TraceSpecFor(g)
	}
	return nets, trs, x.Engine.Options(), nil
}

// Encode writes the document as indented JSON (the canonical on-disk
// form: Decode(Encode(x)) round-trips bit-identically).
func (x *Experiment) Encode(w io.Writer) error {
	b, err := json.MarshalIndent(x, "", "  ")
	if err != nil {
		return fmt.Errorf("spec: encoding experiment %q: %w", x.Name, err)
	}
	b = append(b, '\n')
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("spec: writing experiment %q: %w", x.Name, err)
	}
	return nil
}

// Decode parses and validates an experiment document. Unknown fields and
// trailing content after the document are rejected, so typos and botched
// merges fail loudly instead of silently running a different grid.
func Decode(r io.Reader) (*Experiment, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var x Experiment
	if err := dec.Decode(&x); err != nil {
		return nil, fmt.Errorf("spec: decoding experiment: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("spec: trailing data after the experiment document")
	}
	if err := x.Validate(); err != nil {
		return nil, err
	}
	return &x, nil
}

// --- policy defs ---

// policyTriggers and policyAdjusters list the registered names for error
// messages.
var policyTriggers = []string{"always", "never", "every", "first", "alpha"}

// check validates the trigger and its parameters (strict both ways, like
// the kind checks: set-but-unread parameters are rejected) and that the
// adjuster is one the kind's topology supports.
func (pd *PolicyDef) check(kind string, adjusters ...string) error {
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
		return fmt.Errorf("spec: unknown policy trigger %q (registered: %v)", pd.Trigger, policyTriggers)
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

// trigger materializes a fresh trigger instance. Triggers are stateful,
// so this must be called once per constructed network, never shared
// across grid cells. It assumes check passed.
func (pd *PolicyDef) trigger() policy.Trigger {
	switch pd.Trigger {
	case "always":
		return policy.Always()
	case "never":
		return policy.Never()
	case "every":
		return policy.EveryM(pd.M)
	case "first":
		return policy.First(pd.M)
	case "alpha":
		return policy.AlphaHysteresis(pd.Alpha, pd.Cooldown)
	}
	panic(fmt.Sprintf("spec: unchecked policy trigger %q", pd.Trigger))
}

// treeAdjuster materializes the adjuster for a core.Tree-backed kind. It
// assumes check passed with the tree adjuster set.
func (pd *PolicyDef) treeAdjuster() policy.Adjuster {
	switch pd.Adjuster {
	case "splay":
		return policy.Splay()
	case "semi-splay":
		return policy.SemiSplay()
	case "rebuild-wb":
		return policy.RebuildWeightBalanced("weight-balanced")
	case "rebuild-opt":
		return policy.Rebuild("optimal", statictree.Optimal)
	case "none":
		return policy.None()
	}
	panic(fmt.Sprintf("spec: unchecked policy adjuster %q", pd.Adjuster))
}

// label renders the composition suffix appended to a kind's base label,
// e.g. "4-ary SplayNet [alpha(2000)×splay]".
func (pd *PolicyDef) label(base string) string {
	return fmt.Sprintf("%s [%s×%s]", base, pd.trigger().Name(), pd.Adjuster)
}

// treeAdjusterNames is the adjuster repertoire of the generic
// core.Tree-backed kinds (kary and the static-tree kinds).
var treeAdjusterNames = []string{"splay", "semi-splay", "rebuild-wb", "rebuild-opt", "none"}

// --- builtin kinds ---

// registerBuiltinNetwork wraps the builder with an eager parameter check,
// so Experiment.Validate (which calls Spec and discards the result) can
// reject bad builtin defs before any grid runs.
func registerBuiltinNetwork(kind string, check func(NetworkDef) error, build NetworkBuilder) {
	RegisterNetwork(kind, func(d NetworkDef) (engine.NetworkSpec, error) {
		if err := check(d); err != nil {
			return engine.NetworkSpec{}, err
		}
		return build(d)
	})
}

func registerBuiltinTrace(kind string, check func(TraceDef) error, build TraceBuilder) {
	RegisterTrace(kind, func(d TraceDef) (workload.Generator, error) {
		if err := check(d); err != nil {
			return nil, err
		}
		return build(d)
	})
	regMu.Lock()
	trChecks[kind] = check
	regMu.Unlock()
}

// Builtin checks are strict both ways: required parameters must be in
// range AND parameters the kind does not read must stay zero — a set-but-
// ignored field means the document describes a different experiment than
// the one that would run, the same failure mode DisallowUnknownFields
// guards against at the JSON layer.

func needK(kind string) func(NetworkDef) error {
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

func noParams(kind string) func(NetworkDef) error {
	return func(d NetworkDef) error {
		if d.K != 0 || d.Alpha != 0 {
			return fmt.Errorf("spec: network kind %q takes no parameters, got k=%d alpha=%d", kind, d.K, d.Alpha)
		}
		return nil
	}
}

// genCheck validates the shared generator parameters (every builtin trace
// generator needs at least two nodes to form a self-loop-free pair) and
// rejects set-but-unread ones: wantP/wantS mark the kinds that read the
// temporal parameter p and the skew parameter s. Only hotspot reads
// hot/hotopn and only phased reads phases; both have their own checks, so
// genCheck rejects those fields outright.
func genCheck(kind string, wantP, wantS bool) func(TraceDef) error {
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

// spreadCheck is genCheck for a kind whose skew s can put nearly all of
// an endpoint draw on one node, which would make the kind redraw
// self-loops forever; spread is the workload's test of that.
func spreadCheck(kind string, spread func(n int, s float64) error) func(TraceDef) error {
	check := genCheck(kind, false, true)
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

// hotspotCheck is genCheck for the one kind that reads hot/hotopn, with
// the set-size and spread constraints HotspotGen would otherwise panic on.
func hotspotCheck(d TraceDef) error {
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

// sequentialCheck: the all-pairs sweep is fully deterministic, so a set
// seed (or any distribution parameter) describes an experiment the kind
// cannot run.
func sequentialCheck(d TraceDef) error {
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

// histogramCheck: node count and weights come from the file, so n must
// stay zero like csv's.
func histogramCheck(d TraceDef) error {
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

// phasedCheck validates the phase list recursively: every phase is a
// complete def of a known-length, non-nested kind, all phases agree on
// the node count, and the outer def carries nothing but name and phases
// (its label and length are derived).
func phasedCheck(d TraceDef) error {
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
		if err := pd.check(); err != nil {
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

// makeNet adapts an error-returning constructor to NetworkSpec.Make:
// construction failures (e.g. a def whose arity is incompatible with a
// trace's node count, knowable only per cell) surface as cell errors
// carrying the constructor's message via engine.FailedNetwork.
func makeNet(build func(n int) (sim.Network, error)) func(n int) sim.Network {
	return func(n int) sim.Network {
		net, err := build(n)
		if err != nil {
			return engine.FailedNetwork(err)
		}
		return net
	}
}

// policyKindSpec resolves every builtin network kind through one labelled
// path. A def's policy is checked against the kind's adjuster repertoire;
// a def without one composes the kind's default policy. compose builds
// one network of the composition per cell. The label is d.Name if set,
// else base for the default policy and base plus the composition suffix
// for an explicit one, and it names both the grid cell and the network.
func policyKindSpec(d NetworkDef, base string, def PolicyDef, adjusters []string,
	compose func(label string, pd *PolicyDef, n int) (sim.Network, error)) (engine.NetworkSpec, error) {
	pd, label := &def, base
	if d.Policy != nil {
		if err := d.Policy.check(d.Kind, adjusters...); err != nil {
			return engine.NetworkSpec{}, err
		}
		pd, label = d.Policy, d.Policy.label(base)
	}
	if d.Name != "" {
		label = d.Name
	}
	return engine.NetworkSpec{
		Name: label,
		Make: makeNet(func(n int) (sim.Network, error) { return compose(label, pd, n) }),
	}, nil
}

// onTree composes a checked policy on the tree build makes for a cell's
// node count: the compose step of the kary, lazy and static-tree kinds.
func onTree(build func(n int) (*core.Tree, error)) func(label string, pd *PolicyDef, n int) (sim.Network, error) {
	return func(label string, pd *PolicyDef, n int) (sim.Network, error) {
		t, err := build(n)
		if err != nil {
			return nil, err
		}
		return policy.New(label, t, pd.trigger(), pd.treeAdjuster())
	}
}

// The kinds' default policies: the splay kinds are fully reactive, the
// static-tree kinds frozen.
var (
	reactive = PolicyDef{Trigger: "always", Adjuster: "splay"}
	frozen   = PolicyDef{Trigger: "never", Adjuster: "none"}
)

// triggerOnlyAdjusters is the repertoire of kinds whose adjustment rule
// lives in the topology (centroid, splaynet): only the trigger axis
// composes.
var triggerOnlyAdjusters = []string{"splay", "none"}

func init() {
	registerBuiltinNetwork("kary", needK("kary"), func(d NetworkDef) (engine.NetworkSpec, error) {
		k := d.K
		return policyKindSpec(d, policy.KArySplayNetName(k), reactive, treeAdjusterNames,
			onTree(func(n int) (*core.Tree, error) { return core.NewBalanced(n, k) }))
	})
	registerBuiltinNetwork("centroid", needK("centroid"), func(d NetworkDef) (engine.NetworkSpec, error) {
		k := d.K
		return policyKindSpec(d, fmt.Sprintf("%d-SplayNet", k+1), reactive, triggerOnlyAdjusters,
			func(label string, pd *PolicyDef, n int) (sim.Network, error) {
				return centroidnet.Compose(label, n, k, pd.trigger())
			})
	})
	registerBuiltinNetwork("splaynet", noParams("splaynet"), func(d NetworkDef) (engine.NetworkSpec, error) {
		return policyKindSpec(d, "SplayNet", reactive, triggerOnlyAdjusters,
			func(label string, pd *PolicyDef, n int) (sim.Network, error) {
				return splaynet.Compose(label, n, pd.trigger())
			})
	})
	registerBuiltinNetwork("lazy", func(d NetworkDef) error {
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
	}, func(d NetworkDef) (engine.NetworkSpec, error) {
		k := d.K
		return policyKindSpec(d, policy.LazyName(k, d.Alpha),
			PolicyDef{Trigger: "alpha", Alpha: d.Alpha, Adjuster: "rebuild-wb"}, nil,
			onTree(func(n int) (*core.Tree, error) { return core.NewBalanced(n, k) }))
	})
	registerBuiltinNetwork("full", needK("full"), func(d NetworkDef) (engine.NetworkSpec, error) {
		k := d.K
		return policyKindSpec(d, fmt.Sprintf("full %d-ary tree", k), frozen, treeAdjusterNames,
			onTree(func(n int) (*core.Tree, error) { return statictree.Full(n, k) }))
	})
	registerBuiltinNetwork("centroid-tree", needK("centroid-tree"), func(d NetworkDef) (engine.NetworkSpec, error) {
		k := d.K
		return policyKindSpec(d, fmt.Sprintf("centroid %d-ary tree", k), frozen, treeAdjusterNames,
			onTree(func(n int) (*core.Tree, error) { return statictree.Centroid(n, k) }))
	})
	registerBuiltinNetwork("uniform-opt", needK("uniform-opt"), func(d NetworkDef) (engine.NetworkSpec, error) {
		k := d.K
		return policyKindSpec(d, fmt.Sprintf("uniform-optimal %d-ary tree", k), frozen, treeAdjusterNames,
			onTree(func(n int) (*core.Tree, error) {
				t, _, err := statictree.OptimalUniform(n, k)
				return t, err
			}))
	})

	registerBuiltinTrace("uniform", genCheck("uniform", false, false), func(d TraceDef) (workload.Generator, error) {
		return workload.UniformGen(d.N, d.M, d.Seed), nil
	})
	registerBuiltinTrace("temporal", genCheck("temporal", true, false), func(d TraceDef) (workload.Generator, error) {
		return workload.TemporalGen(d.N, d.M, d.P, d.Seed), nil
	})
	registerBuiltinTrace("hpc", genCheck("hpc", false, false), func(d TraceDef) (workload.Generator, error) {
		return workload.HPCGen(d.N, d.M, d.Seed), nil
	})
	registerBuiltinTrace("projector", genCheck("projector", false, false), func(d TraceDef) (workload.Generator, error) {
		return workload.ProjectorGen(d.N, d.M, d.Seed), nil
	})
	registerBuiltinTrace("facebook", genCheck("facebook", false, false), func(d TraceDef) (workload.Generator, error) {
		return workload.FacebookGen(d.N, d.M, d.Seed), nil
	})
	registerBuiltinTrace("zipf", spreadCheck("zipf", workload.ZipfSpread), func(d TraceDef) (workload.Generator, error) {
		return workload.ZipfGen(d.N, d.M, d.S, d.Seed), nil
	})
	registerBuiltinTrace("hotspot", hotspotCheck, func(d TraceDef) (workload.Generator, error) {
		return workload.HotspotGen(d.N, d.M, d.Hot, d.HotOpn, d.Seed), nil
	})
	registerBuiltinTrace("exponential", spreadCheck("exponential", workload.ExponentialSpread), func(d TraceDef) (workload.Generator, error) {
		return workload.ExponentialGen(d.N, d.M, d.S, d.Seed), nil
	})
	registerBuiltinTrace("latest", spreadCheck("latest", workload.ZipfSpread), func(d TraceDef) (workload.Generator, error) {
		return workload.LatestGen(d.N, d.M, d.S, d.Seed), nil
	})
	registerBuiltinTrace("sequential", sequentialCheck, func(d TraceDef) (workload.Generator, error) {
		return workload.SequentialGen(d.N, d.M), nil
	})
	registerBuiltinTrace("histogram", histogramCheck, func(d TraceDef) (workload.Generator, error) {
		f, err := os.Open(d.Path)
		if err != nil {
			return nil, fmt.Errorf("spec: opening histogram file: %w", err)
		}
		defer f.Close()
		weights, err := workload.ReadWeights(f)
		if err != nil {
			return nil, fmt.Errorf("spec: %s: %w", d.Path, err)
		}
		g, err := workload.HistogramGen(len(weights), d.M, weights, d.Seed)
		if err != nil {
			return nil, fmt.Errorf("spec: %s: %w", d.Path, err)
		}
		return g, nil
	})
	registerBuiltinTrace("csv", func(d TraceDef) error {
		if d.Path == "" {
			return fmt.Errorf("spec: trace kind \"csv\" needs a path")
		}
		if d.N != 0 || d.M != 0 || d.P != 0 || d.S != 0 || d.Seed != 0 || d.Hot != 0 || d.HotOpn != 0 || len(d.Phases) != 0 {
			return fmt.Errorf("spec: trace kind \"csv\" reads only path and name; everything else comes from the file (got n=%d m=%d p=%v s=%v seed=%d hot=%v hotopn=%v phases=%d)",
				d.N, d.M, d.P, d.S, d.Seed, d.Hot, d.HotOpn, len(d.Phases))
		}
		return nil
	}, func(d TraceDef) (workload.Generator, error) {
		g, err := workload.OpenCSV(d.Path)
		if err != nil {
			return nil, fmt.Errorf("spec: %s: %w", d.Path, err)
		}
		return g, nil
	})
	registerBuiltinTrace("phased", phasedCheck, func(d TraceDef) (workload.Generator, error) {
		phases := make([]workload.Phase, len(d.Phases))
		for i, pd := range d.Phases {
			g, err := pd.Resolve()
			if err != nil {
				return nil, fmt.Errorf("spec: phases[%d]: %w", i, err)
			}
			phases[i] = workload.Phase{Gen: g, M: pd.M}
		}
		label := d.Name
		if label == "" {
			label = "phased"
		}
		return workload.PhasedGen(label, phases)
	})
}
