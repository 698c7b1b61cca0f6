package spec

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"github.com/ksan-net/ksan/internal/engine"
	"github.com/ksan-net/ksan/internal/serve"
	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/workload"
)

// ServeDef is the serializable configuration of the serving layer
// (internal/serve): the shard/client topology and the closed-loop load
// shape. Zero-valued fields mean the serve defaults (one shard, clients =
// shards, unthrottled, no warmup, full stream, no duration cap, latency
// sampled on every request).
type ServeDef struct {
	Shards          int     `json:"shards,omitempty"`
	Clients         int     `json:"clients,omitempty"`
	TargetOps       float64 `json:"target_ops,omitempty"`
	Warmup          int     `json:"warmup,omitempty"`
	MaxRequests     int64   `json:"max_requests,omitempty"`
	DurationSeconds float64 `json:"duration_seconds,omitempty"`
	// LatencySample measures closed-loop latency on every k-th request
	// per client; 0 means the default (every request), -1 disables
	// latency measurement entirely.
	LatencySample int `json:"latency_sample,omitempty"`
}

// check validates the block's ranges (strict like every other def: a
// field outside its domain describes a run the layer cannot execute).
func (d ServeDef) check() error {
	if d.Shards < 0 || d.Clients < 0 || d.TargetOps < 0 || d.Warmup < 0 ||
		d.MaxRequests < 0 || d.DurationSeconds < 0 || d.LatencySample < -1 {
		return fmt.Errorf("spec: serve block fields must be non-negative (latency_sample >= -1), got %+v", d)
	}
	if err := checkDuration("duration_seconds", d.DurationSeconds, time.Second); err != nil {
		return fmt.Errorf("spec: serve block: %w", err)
	}
	return nil
}

// checkDuration rejects a document duration of x units that lies beyond
// time.Duration's range of ±2⁶³ ns (about 292 years), naming its field:
// Go leaves the conversion of such a float64 to a Duration
// implementation-defined (on amd64 it turns negative).
func checkDuration(field string, x float64, unit time.Duration) error {
	if ns := math.Abs(x) * float64(unit); !(ns < 1<<63) {
		return fmt.Errorf("%s %g is beyond a duration's range (about 292 years)", field, x)
	}
	return nil
}

// Config resolves the def to the serving layer's runtime configuration.
func (d ServeDef) Config() serve.Config {
	sample := d.LatencySample
	switch sample {
	case 0:
		sample = 1
	case -1:
		sample = 0
	}
	return serve.Config{
		Shards:        d.Shards,
		Clients:       d.Clients,
		TargetOps:     d.TargetOps,
		Warmup:        d.Warmup,
		MaxRequests:   d.MaxRequests,
		Duration:      time.Duration(d.DurationSeconds * float64(time.Second)),
		LatencySample: sample,
	}
}

// FaultEventSpec is one scripted fault in a load document. Trigger
// points are logical (the target shard's local serve count), so a
// document replays the same schedule on every run.
type FaultEventSpec struct {
	Shard int    `json:"shard"`
	At    int64  `json:"at"`
	Kind  string `json:"kind"` // "crash" or "stall"
	// RecoverAfter (crashes only): arrivals rejected before the next
	// arrival triggers snapshot+replay recovery; 0 = recover on the
	// first post-crash arrival, -1 = never recover.
	RecoverAfter int64 `json:"recover_after,omitempty"`
	// StallMs (stalls only): how long the shard stays stalled.
	StallMs float64 `json:"stall_ms,omitempty"`
}

// FaultSpec is the serializable fault schedule of a serving run — the
// document form of serve.FaultPlan. A nil *FaultSpec in a LoadSpec
// means faults are disarmed and the run uses the plain serving path.
type FaultSpec struct {
	CheckpointEvery int64            `json:"checkpoint_every,omitempty"`
	Degraded        string           `json:"degraded,omitempty"` // "fail" (default) or "stale"
	TimeoutMs       float64          `json:"timeout_ms,omitempty"`
	Retries         int              `json:"retries,omitempty"`
	BackoffMs       float64          `json:"backoff_ms,omitempty"`
	BackoffCapMs    float64          `json:"backoff_cap_ms,omitempty"`
	Seed            uint64           `json:"seed,omitempty"`
	Events          []FaultEventSpec `json:"events,omitempty"`
}

// check validates the two names the document spells, the degraded mode
// and each event's kind, and that every duration converts (checkDuration),
// and then the plan they map to with the serving layer's own rules
// (serve.FaultPlan.Check). Shard ranges depend on the resolved shard
// count, so serve.Run checks them at start.
func (f *FaultSpec) check() error {
	switch f.Degraded {
	case "", "fail", "stale":
	default:
		return fmt.Errorf("spec: faults: unknown degraded mode %q (want \"fail\" or \"stale\")", f.Degraded)
	}
	for _, d := range []struct {
		field string
		ms    float64
	}{{"timeout_ms", f.TimeoutMs}, {"backoff_ms", f.BackoffMs}, {"backoff_cap_ms", f.BackoffCapMs}} {
		if err := checkDuration(d.field, d.ms, time.Millisecond); err != nil {
			return fmt.Errorf("spec: faults: %w", err)
		}
	}
	for i, ev := range f.Events {
		if ev.Kind != "crash" && ev.Kind != "stall" {
			return fmt.Errorf("spec: faults: event %d: unknown kind %q (want \"crash\" or \"stall\")", i, ev.Kind)
		}
		if err := checkDuration("stall_ms", ev.StallMs, time.Millisecond); err != nil {
			return fmt.Errorf("spec: faults: event %d: %w", i, err)
		}
	}
	if err := f.Plan().Check(); err != nil {
		return fmt.Errorf("spec: faults: %w", err)
	}
	return nil
}

// Plan resolves the spec to the serving layer's runtime fault plan. Every
// field maps whatever the event's kind, so the plan's check sees a stall
// duration on a crash.
func (f *FaultSpec) Plan() *serve.FaultPlan {
	p := &serve.FaultPlan{
		CheckpointEvery: f.CheckpointEvery,
		Timeout:         time.Duration(f.TimeoutMs * float64(time.Millisecond)),
		Retries:         f.Retries,
		Backoff:         time.Duration(f.BackoffMs * float64(time.Millisecond)),
		BackoffCap:      time.Duration(f.BackoffCapMs * float64(time.Millisecond)),
		Seed:            f.Seed,
	}
	if f.Degraded == "stale" {
		p.Degraded = serve.DegradedStale
	}
	for _, ev := range f.Events {
		e := serve.FaultEvent{Shard: ev.Shard, At: ev.At, RecoverAfter: ev.RecoverAfter,
			Stall: time.Duration(ev.StallMs * float64(time.Millisecond))}
		if ev.Kind == "stall" {
			e.Kind = serve.FaultStall
		}
		p.Events = append(p.Events, e)
	}
	return p
}

// LoadSpec is the complete description of one serving run — the document
// cmd/ksanload executes: one network def served on one trace def under a
// serve block, optionally with a scripted fault schedule. Like Experiment
// it is the unit of serialization (Encode/DecodeLoad round-trip through
// JSON) and validates strictly.
type LoadSpec struct {
	Name    string     `json:"name,omitempty"`
	Network NetworkDef `json:"network"`
	Trace   TraceDef   `json:"trace"`
	Serve   ServeDef   `json:"serve,omitempty"`
	Faults  *FaultSpec `json:"faults,omitempty"`
}

// Validate checks the document without materializing the trace.
func (l *LoadSpec) Validate() error {
	if _, err := l.Network.Spec(); err != nil {
		return fmt.Errorf("spec: load %q network: %w", l.Name, err)
	}
	if err := l.Trace.check(); err != nil {
		return fmt.Errorf("spec: load %q trace: %w", l.Name, err)
	}
	if err := l.Serve.check(); err != nil {
		return fmt.Errorf("spec: load %q: %w", l.Name, err)
	}
	if l.Faults != nil {
		if err := l.Faults.check(); err != nil {
			return fmt.Errorf("spec: load %q: %w", l.Name, err)
		}
	}
	return nil
}

// Resolve validates the document and returns the per-shard network
// constructor, the workload stream factory, and the serving
// configuration. The constructor is the network def's Make sized to each
// shard's node count; construction failures surface as errors rather
// than failed-network sentinels, since a serving run has exactly one
// network def.
func (l *LoadSpec) Resolve() (func(n int) (sim.Network, error), workload.Generator, serve.Config, error) {
	if err := l.Validate(); err != nil {
		return nil, nil, serve.Config{}, err
	}
	ns, err := l.Network.Spec()
	if err != nil {
		return nil, nil, serve.Config{}, err
	}
	gen, err := l.Trace.Resolve()
	if err != nil {
		return nil, nil, serve.Config{}, err
	}
	mk := func(n int) (sim.Network, error) {
		net := ns.Make(n)
		if err := engine.AsFailed(net); err != nil {
			return nil, err
		}
		return net, nil
	}
	cfg := l.Serve.Config()
	if l.Faults != nil {
		cfg.Faults = l.Faults.Plan()
	}
	return mk, gen, cfg, nil
}

// Encode writes the document as indented JSON.
func (l *LoadSpec) Encode(w io.Writer) error {
	b, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return fmt.Errorf("spec: encoding load %q: %w", l.Name, err)
	}
	b = append(b, '\n')
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("spec: writing load %q: %w", l.Name, err)
	}
	return nil
}

// DecodeLoad parses and validates a load document, with the same
// strictness as Decode: unknown fields and trailing content are rejected.
func DecodeLoad(r io.Reader) (*LoadSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var l LoadSpec
	if err := dec.Decode(&l); err != nil {
		return nil, fmt.Errorf("spec: decoding load: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("spec: trailing data after the load document")
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return &l, nil
}
