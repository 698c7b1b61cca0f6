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
	"slices"
	"sort"
	"strings"
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
// kinds and the fields they read besides kind and name (k ≥ 2 and
// alpha ≥ 1 wherever read; a field the kind does not read must be unset):
//
//	kary      — k policy: the k-ary SplayNet
//	centroid  — k policy: the centroid-based (k+1)-SplayNet
//	splaynet  — policy: the binary SplayNet baseline
//	lazy      — k alpha: the partially reactive network
//	full      — k policy: the static weakly-complete k-ary tree
//	centroid-tree — k policy: the static centroid k-ary tree
//	uniform-opt   — k policy: the static uniform-optimal k-ary tree
//
// A Policy makes the kind only name the topology family, and the policy
// picks the point of the trigger × adjuster plane served on it (see
// PolicyDef). Without a policy each kind is its canonical composition —
// kary/centroid/splaynet are fully reactive (always × their splay), the
// static kinds are frozen (never × none). The lazy kind is itself the
// canonical kary × (alpha, rebuild-wb) composition, so it does not read
// a policy; spell variations as kary defs with an explicit policy.
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
// topology. Triggers and the fields they read (m ≥ 1, alpha ≥ 1 and
// cooldown ≥ 0 wherever read; a field the trigger does not read must be
// unset):
//
//	always — adjust after every request (none)
//	never  — frozen topology (none)
//	every  — m: adjust on every m-th request
//	first  — m: adjust on each of the first m requests, then freeze
//	alpha  — alpha cooldown: adjust once the routing cost since the last
//	         adjustment reaches alpha; cooldown adds a re-arm delay of
//	         that many requests, the hysteresis damping
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
// builtin kinds and the fields they read besides kind and name:
//
//	uniform     — n m seed: UniformGen
//	temporal    — n m p seed: TemporalGen
//	hpc         — n m seed: HPCGen
//	projector   — n m seed: ProjectorGen
//	facebook    — n m seed: FacebookGen
//	zipf        — n m s seed: ZipfGen
//	hotspot     — n m hot hotopn seed: HotspotGen, a hot fraction of the
//	              nodes receives a hotopn fraction of the endpoint draws
//	exponential — n m s seed: ExponentialGen, s the decay rate
//	latest      — n m s seed: LatestGen, s the recency skew
//	sequential  — n m: SequentialGen, the deterministic all-pairs sweep
//	histogram   — m seed path: HistogramGen over explicit node weights
//	              read from path (one weight per line; n comes from the
//	              file)
//	csv         — path: a trace file written by workload.WriteCSV (n
//	              comes from the file; length is unknown up front)
//	phased      — phases: the concatenation of the phase defs, each of
//	              any non-phased, known-length kind, whose m is the
//	              phase's duration. Flash crowds, diurnal skew rotation
//	              and hot-set drift are phase lists (see EXPERIMENTS.md
//	              §A6).
//
// A builtin def must leave every field its kind does not read unset, and
// a field it reads must lie in the domain all readers share: n ≥ 2, m ≥ 1,
// p in [0,1), s > 0, a non-empty path, at least one phase. Some kinds add
// one rule. The zipf, exponential and latest kinds redraw a request's
// destination until it differs from its source, so each rejects an s that
// leaves less than 2^-20 of an endpoint draw outside its heaviest node
// (workload.ZipfSpread, ExponentialSpread); hotspot needs hot and hotopn
// in (0,1), hot·n in 1..n-1 and the same spread (workload.HotspotSpread);
// phased needs every phase to pass its own check and the phases that
// declare n to agree on it (a histogram phase's n comes from its file and
// is compared when the phases resolve). A histogram file must pass the
// same spread test when it is read.
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

// --- strict field checks ---

// param is one def field as the strict checker sees it: its name, its
// value (for messages), whether the def sets it (any non-zero value), and
// whether it lies in the domain every kind that reads it shares (domain
// "" and valid true when any value is, or when the kind's own rule
// decides).
type param struct {
	name   string
	value  any
	set    bool
	domain string
	valid  bool
}

// checkParams is the one strict field checker of every def type: trace
// kinds, network kinds and policy triggers. reads names the fields the
// kind reads. A field it does not read must be unset: a set-but-ignored
// field means the document describes a different experiment than the one
// that would run, the failure DisallowUnknownFields guards against at the
// JSON layer. A field it reads must lie in its shared domain.
func checkParams(what, kind, reads string, params []param) error {
	read := strings.Fields(reads)
	for _, p := range params {
		switch {
		case !slices.Contains(read, p.name):
			if p.set {
				return fmt.Errorf("spec: %s %q does not read %s (got %v)", what, kind, p.name, p.value)
			}
		case !p.valid:
			return fmt.Errorf("spec: %s %q needs %s, got %v", what, kind, p.domain, p.value)
		}
	}
	return nil
}

// params lists the trace def's fields. Every kind that reads n, m, p, s,
// path or phases requires the same of it; hot and hotopn are the hotspot
// kind's rule, and any seed is valid.
func (d TraceDef) params() []param {
	return []param{
		{"n", d.N, d.N != 0, "n >= 2", d.N >= 2},
		{"m", d.M, d.M != 0, "m >= 1", d.M >= 1},
		{"p", d.P, d.P != 0, "p in [0,1)", !(d.P < 0 || d.P >= 1)},
		{"s", d.S, d.S != 0, "s > 0", d.S > 0},
		{"hot", d.Hot, d.Hot != 0, "", true},
		{"hotopn", d.HotOpn, d.HotOpn != 0, "", true},
		{"seed", d.Seed, d.Seed != 0, "", true},
		{"path", d.Path, d.Path != "", "a path", d.Path != ""},
		{"phases", len(d.Phases), len(d.Phases) != 0, "at least one phase", len(d.Phases) != 0},
	}
}

// params lists the network def's fields; a policy is checked against the
// kind's adjusters when the kind resolves it.
func (d NetworkDef) params() []param {
	return []param{
		{"k", d.K, d.K != 0, "k >= 2", d.K >= 2},
		{"alpha", d.Alpha, d.Alpha != 0, "alpha >= 1", d.Alpha >= 1},
		{"policy", d.Policy, d.Policy != nil, "", true},
	}
}

// params lists the policy def's trigger fields.
func (pd *PolicyDef) params() []param {
	return []param{
		{"m", pd.M, pd.M != 0, "m >= 1", pd.M >= 1},
		{"alpha", pd.Alpha, pd.Alpha != 0, "alpha >= 1", pd.Alpha >= 1},
		{"cooldown", pd.Cooldown, pd.Cooldown != 0, "cooldown >= 0", pd.Cooldown >= 0},
	}
}

// --- policy defs ---

// policyTriggers maps each trigger to the PolicyDef fields it reads and
// its constructor.
var policyTriggers = map[string]struct {
	reads string
	make  func(pd *PolicyDef) policy.Trigger
}{
	"always": {"", func(*PolicyDef) policy.Trigger { return policy.Always() }},
	"never":  {"", func(*PolicyDef) policy.Trigger { return policy.Never() }},
	"every":  {"m", func(pd *PolicyDef) policy.Trigger { return policy.EveryM(pd.M) }},
	"first":  {"m", func(pd *PolicyDef) policy.Trigger { return policy.First(pd.M) }},
	"alpha":  {"alpha cooldown", func(pd *PolicyDef) policy.Trigger { return policy.AlphaHysteresis(pd.Alpha, pd.Cooldown) }},
}

// check validates the trigger's fields (strict both ways, like the kind
// checks) and that the adjuster is one the kind's topology supports.
func (pd *PolicyDef) check(kind string, adjusters ...string) error {
	t, ok := policyTriggers[pd.Trigger]
	if !ok {
		return fmt.Errorf("spec: unknown policy trigger %q (registered: %v)", pd.Trigger, sortedKeys(policyTriggers))
	}
	if err := checkParams("policy trigger", pd.Trigger, t.reads, pd.params()); err != nil {
		return err
	}
	if !slices.Contains(adjusters, pd.Adjuster) {
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
	return policyTriggers[pd.Trigger].make(pd)
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

// registerBuiltinNetwork registers build behind the strict check of the
// fields the kind reads, so Experiment.Validate (which calls Spec and
// discards the result) rejects bad builtin defs before any grid runs.
func registerBuiltinNetwork(kind, reads string, build NetworkBuilder) {
	RegisterNetwork(kind, func(d NetworkDef) (engine.NetworkSpec, error) {
		if err := checkParams("network kind", kind, reads, d.params()); err != nil {
			return engine.NetworkSpec{}, err
		}
		return build(d)
	})
}

// registerBuiltinTrace registers build behind the kind's check: the
// strict check of the fields it reads, then its extra rule (nil for none)
// on a def whose fields passed.
func registerBuiltinTrace(kind, reads string, rule func(TraceDef) error, build TraceBuilder) {
	check := func(d TraceDef) error {
		if err := checkParams("trace kind", kind, reads, d.params()); err != nil {
			return err
		}
		if rule == nil {
			return nil
		}
		if err := rule(d); err != nil {
			return fmt.Errorf("spec: trace kind %q: %w", kind, err)
		}
		return nil
	}
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

// phasedRule checks the phase list: every phase is a def of a
// known-length, non-nested kind that passes its own check, and the phases
// that declare a node count agree on it. A histogram phase's count comes
// from its file, so it is compared when PhasedGen sees the resolved
// counts.
func phasedRule(d TraceDef) error {
	n := 0
	for i, pd := range d.Phases {
		switch pd.Kind {
		case "phased":
			return fmt.Errorf("phases[%d]: phased traces do not nest", i)
		case "csv":
			return fmt.Errorf("phases[%d]: kind \"csv\" cannot be a phase (its length is not declared, so the phase duration is unknowable)", i)
		}
		if err := pd.check(); err != nil {
			return fmt.Errorf("phases[%d]: %w", i, err)
		}
		if n == 0 {
			n = pd.N
		} else if pd.N != 0 && pd.N != n {
			return fmt.Errorf("phases[%d]: node count %d differs from an earlier phase's %d (one network serves the whole stream)", i, pd.N, n)
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
	registerBuiltinNetwork("kary", "k policy", func(d NetworkDef) (engine.NetworkSpec, error) {
		k := d.K
		return policyKindSpec(d, policy.KArySplayNetName(k), reactive, treeAdjusterNames,
			onTree(func(n int) (*core.Tree, error) { return core.NewBalanced(n, k) }))
	})
	registerBuiltinNetwork("centroid", "k policy", func(d NetworkDef) (engine.NetworkSpec, error) {
		k := d.K
		return policyKindSpec(d, fmt.Sprintf("%d-SplayNet", k+1), reactive, triggerOnlyAdjusters,
			func(label string, pd *PolicyDef, n int) (sim.Network, error) {
				return centroidnet.Compose(label, n, k, pd.trigger())
			})
	})
	registerBuiltinNetwork("splaynet", "policy", func(d NetworkDef) (engine.NetworkSpec, error) {
		return policyKindSpec(d, "SplayNet", reactive, triggerOnlyAdjusters,
			func(label string, pd *PolicyDef, n int) (sim.Network, error) {
				return splaynet.Compose(label, n, pd.trigger())
			})
	})
	registerBuiltinNetwork("lazy", "k alpha", func(d NetworkDef) (engine.NetworkSpec, error) {
		k := d.K
		return policyKindSpec(d, policy.LazyName(k, d.Alpha),
			PolicyDef{Trigger: "alpha", Alpha: d.Alpha, Adjuster: "rebuild-wb"}, nil,
			onTree(func(n int) (*core.Tree, error) { return core.NewBalanced(n, k) }))
	})
	registerBuiltinNetwork("full", "k policy", func(d NetworkDef) (engine.NetworkSpec, error) {
		k := d.K
		return policyKindSpec(d, fmt.Sprintf("full %d-ary tree", k), frozen, treeAdjusterNames,
			onTree(func(n int) (*core.Tree, error) { return statictree.Full(n, k) }))
	})
	registerBuiltinNetwork("centroid-tree", "k policy", func(d NetworkDef) (engine.NetworkSpec, error) {
		k := d.K
		return policyKindSpec(d, fmt.Sprintf("centroid %d-ary tree", k), frozen, treeAdjusterNames,
			onTree(func(n int) (*core.Tree, error) { return statictree.Centroid(n, k) }))
	})
	registerBuiltinNetwork("uniform-opt", "k policy", func(d NetworkDef) (engine.NetworkSpec, error) {
		k := d.K
		return policyKindSpec(d, fmt.Sprintf("uniform-optimal %d-ary tree", k), frozen, treeAdjusterNames,
			onTree(func(n int) (*core.Tree, error) {
				t, _, err := statictree.OptimalUniform(n, k)
				return t, err
			}))
	})

	// The skewed kinds' rules: an endpoint draw that puts nearly all of
	// its mass on one node would redraw self-loops forever.
	zipfSpread := func(d TraceDef) error { return workload.ZipfSpread(d.N, d.S) }
	registerBuiltinTrace("uniform", "n m seed", nil, func(d TraceDef) (workload.Generator, error) {
		return workload.UniformGen(d.N, d.M, d.Seed), nil
	})
	registerBuiltinTrace("temporal", "n m p seed", nil, func(d TraceDef) (workload.Generator, error) {
		return workload.TemporalGen(d.N, d.M, d.P, d.Seed), nil
	})
	registerBuiltinTrace("hpc", "n m seed", nil, func(d TraceDef) (workload.Generator, error) {
		return workload.HPCGen(d.N, d.M, d.Seed), nil
	})
	registerBuiltinTrace("projector", "n m seed", nil, func(d TraceDef) (workload.Generator, error) {
		return workload.ProjectorGen(d.N, d.M, d.Seed), nil
	})
	registerBuiltinTrace("facebook", "n m seed", nil, func(d TraceDef) (workload.Generator, error) {
		return workload.FacebookGen(d.N, d.M, d.Seed), nil
	})
	registerBuiltinTrace("zipf", "n m s seed", zipfSpread, func(d TraceDef) (workload.Generator, error) {
		return workload.ZipfGen(d.N, d.M, d.S, d.Seed), nil
	})
	registerBuiltinTrace("hotspot", "n m hot hotopn seed", func(d TraceDef) error {
		return workload.HotspotSpread(d.N, d.Hot, d.HotOpn)
	}, func(d TraceDef) (workload.Generator, error) {
		return workload.HotspotGen(d.N, d.M, d.Hot, d.HotOpn, d.Seed), nil
	})
	registerBuiltinTrace("exponential", "n m s seed", func(d TraceDef) error {
		return workload.ExponentialSpread(d.N, d.S)
	}, func(d TraceDef) (workload.Generator, error) {
		return workload.ExponentialGen(d.N, d.M, d.S, d.Seed), nil
	})
	registerBuiltinTrace("latest", "n m s seed", zipfSpread, func(d TraceDef) (workload.Generator, error) {
		return workload.LatestGen(d.N, d.M, d.S, d.Seed), nil
	})
	registerBuiltinTrace("sequential", "n m", nil, func(d TraceDef) (workload.Generator, error) {
		return workload.SequentialGen(d.N, d.M), nil
	})
	registerBuiltinTrace("histogram", "m seed path", nil, func(d TraceDef) (workload.Generator, error) {
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
	registerBuiltinTrace("csv", "path", nil, func(d TraceDef) (workload.Generator, error) {
		g, err := workload.OpenCSV(d.Path)
		if err != nil {
			return nil, fmt.Errorf("spec: %s: %w", d.Path, err)
		}
		return g, nil
	})
	registerBuiltinTrace("phased", "phases", phasedRule, func(d TraceDef) (workload.Generator, error) {
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
