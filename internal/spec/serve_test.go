package spec

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/ksan-net/ksan/internal/serve"
)

func validLoad() *LoadSpec {
	return &LoadSpec{
		Name:    "t",
		Network: NetworkDef{Kind: "kary", K: 4},
		Trace:   TraceDef{Kind: "temporal", N: 64, M: 1000, P: 0.5, Seed: 7},
		Serve:   ServeDef{Shards: 2, Clients: 3, TargetOps: 100, Warmup: 10, MaxRequests: 500, DurationSeconds: 1.5, LatencySample: 4},
	}
}

func TestLoadSpecRoundTrip(t *testing.T) {
	l := validLoad()
	var buf bytes.Buffer
	if err := l.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeLoad(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, l) {
		t.Errorf("round trip diverged:\n got %+v\nwant %+v", got, l)
	}
}

func TestLoadSpecDecodeStrict(t *testing.T) {
	if _, err := DecodeLoad(strings.NewReader(`{"network":{"kind":"kary","k":4},"trace":{"kind":"uniform","n":8,"m":10},"bogus":1}`)); err == nil {
		t.Errorf("unknown field must be rejected")
	}
	if _, err := DecodeLoad(strings.NewReader(`{"network":{"kind":"kary","k":4},"trace":{"kind":"uniform","n":8,"m":10}} {}`)); err == nil {
		t.Errorf("trailing data must be rejected")
	}
	if _, err := DecodeLoad(strings.NewReader(`{"network":{"kind":"nope"},"trace":{"kind":"uniform","n":8,"m":10}}`)); err == nil {
		t.Errorf("unknown network kind must be rejected")
	}
}

func TestServeDefValidation(t *testing.T) {
	for _, d := range []ServeDef{
		{Shards: -1}, {Clients: -1}, {TargetOps: -1}, {Warmup: -1},
		{MaxRequests: -1}, {DurationSeconds: -1}, {LatencySample: -2},
	} {
		l := validLoad()
		l.Serve = d
		if err := l.Validate(); err == nil {
			t.Errorf("serve def %+v must be rejected", d)
		}
	}
	l := validLoad()
	l.Serve = ServeDef{} // all defaults are valid
	if err := l.Validate(); err != nil {
		t.Errorf("zero serve def must validate, got %v", err)
	}
}

// TestServeDefConfig pins the def → runtime mapping, in particular the
// latency_sample encoding (0 = default = every request, -1 = off).
func TestServeDefConfig(t *testing.T) {
	d := ServeDef{Shards: 2, Clients: 3, TargetOps: 50, Warmup: 5, MaxRequests: 99, DurationSeconds: 0.25, LatencySample: 10}
	cfg := d.Config()
	want := serve.Config{Shards: 2, Clients: 3, TargetOps: 50, Warmup: 5, MaxRequests: 99,
		Duration: 250 * time.Millisecond, LatencySample: 10}
	if cfg.Shards != want.Shards || cfg.Clients != want.Clients || cfg.TargetOps != want.TargetOps ||
		cfg.Warmup != want.Warmup || cfg.MaxRequests != want.MaxRequests ||
		cfg.Duration != want.Duration || cfg.LatencySample != want.LatencySample {
		t.Errorf("Config() = %+v, want %+v", cfg, want)
	}
	if got := (ServeDef{}).Config().LatencySample; got != 1 {
		t.Errorf("default latency sample = %d, want 1 (every request)", got)
	}
	if got := (ServeDef{LatencySample: -1}).Config().LatencySample; got != 0 {
		t.Errorf("latency_sample -1 must disable sampling, got %d", got)
	}
}

func TestFaultSpecRoundTrip(t *testing.T) {
	l := validLoad()
	l.Faults = &FaultSpec{
		CheckpointEvery: 100, Degraded: "stale", TimeoutMs: 2.5, Retries: 3,
		BackoffMs: 0.5, BackoffCapMs: 8, Seed: 99,
		Events: []FaultEventSpec{
			{Shard: 0, At: 50, Kind: "crash", RecoverAfter: 2},
			{Shard: 1, At: 10, Kind: "stall", StallMs: 1.5},
		},
	}
	var buf bytes.Buffer
	if err := l.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeLoad(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, l) {
		t.Errorf("round trip diverged:\n got %+v\nwant %+v", got, l)
	}
}

// invalidFaultSpecs are fault blocks Validate must reject.
func invalidFaultSpecs() map[string]*FaultSpec {
	crash := func(ev FaultEventSpec) *FaultSpec { return &FaultSpec{Events: []FaultEventSpec{ev}} }
	return map[string]*FaultSpec{
		"negative checkpoint_every": {CheckpointEvery: -1},
		"unknown degraded":          {Degraded: "panic"},
		"negative timeout":          {TimeoutMs: -1},
		"negative retries":          {Retries: -1},
		"negative backoff":          {BackoffMs: -1},
		"negative backoff cap":      {BackoffCapMs: -1},
		"negative shard":            crash(FaultEventSpec{Shard: -1, At: 1, Kind: "crash"}),
		"at zero":                   crash(FaultEventSpec{At: 0, Kind: "crash"}),
		"unknown kind":              crash(FaultEventSpec{At: 1, Kind: "explode"}),
		"recover_after below -1":    crash(FaultEventSpec{At: 1, Kind: "crash", RecoverAfter: -2}),
		"crash with stall_ms":       crash(FaultEventSpec{At: 1, Kind: "crash", StallMs: 1}),
		"stall without stall_ms":    crash(FaultEventSpec{At: 1, Kind: "stall"}),
		"stall with recover_after":  crash(FaultEventSpec{At: 1, Kind: "stall", StallMs: 1, RecoverAfter: 1}),
		"two events at one at": {Events: []FaultEventSpec{
			{Shard: 1, At: 5, Kind: "crash"}, {Shard: 1, At: 5, Kind: "stall", StallMs: 1}}},
		"stall_ms rounds to zero": crash(FaultEventSpec{At: 1, Kind: "stall", StallMs: 1e-7}),
	}
}

func TestFaultSpecValidation(t *testing.T) {
	for name, f := range invalidFaultSpecs() {
		l := validLoad()
		l.Faults = f
		if err := l.Validate(); err == nil {
			t.Errorf("%s: fault spec %+v must be rejected", name, f)
		}
	}
	l := validLoad()
	l.Faults = &FaultSpec{} // zero faults block is valid (defaults, no events)
	if err := l.Validate(); err != nil {
		t.Errorf("zero fault spec must validate, got %v", err)
	}
}

// TestDurationFieldsInRange: every duration a load document spells must
// convert to a time.Duration, whose range ends at 2⁶³ ns (about 9.22e12
// ms or 9.22e9 s). A value beyond it is rejected by name on every
// platform; one just inside it validates.
func TestDurationFieldsInRange(t *testing.T) {
	fields := map[string]func(l *LoadSpec, ms float64){
		"timeout_ms":     func(l *LoadSpec, ms float64) { l.Faults = &FaultSpec{TimeoutMs: ms} },
		"backoff_ms":     func(l *LoadSpec, ms float64) { l.Faults = &FaultSpec{BackoffMs: ms} },
		"backoff_cap_ms": func(l *LoadSpec, ms float64) { l.Faults = &FaultSpec{BackoffCapMs: ms} },
		"stall_ms": func(l *LoadSpec, ms float64) {
			l.Faults = &FaultSpec{Events: []FaultEventSpec{{At: 1, Kind: "stall", StallMs: ms}}}
		},
		"duration_seconds": func(l *LoadSpec, ms float64) { l.Serve.DurationSeconds = ms / 1e3 },
	}
	for field, set := range fields {
		inside, beyond := validLoad(), validLoad()
		set(inside, 9e12)
		set(beyond, 1e13)
		if err := inside.Validate(); err != nil {
			t.Errorf("%s at 9e12 ms: %v", field, err)
		}
		if err := beyond.Validate(); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s at 1e13 ms: Validate returned %v, want an error naming %s", field, err, field)
		}
	}
}

// TestFaultSpecPlan pins the spec → runtime mapping: millisecond fields
// become durations, kind/degraded strings become enums.
func TestFaultSpecPlan(t *testing.T) {
	f := &FaultSpec{
		CheckpointEvery: 64, Degraded: "stale", TimeoutMs: 2.5, Retries: 2,
		BackoffMs: 0.5, BackoffCapMs: 4, Seed: 7,
		Events: []FaultEventSpec{
			{Shard: 1, At: 9, Kind: "crash", RecoverAfter: -1},
			{Shard: 0, At: 3, Kind: "stall", StallMs: 1.5},
		},
	}
	p := f.Plan()
	want := &serve.FaultPlan{
		CheckpointEvery: 64, Degraded: serve.DegradedStale,
		Timeout: 2500 * time.Microsecond, Retries: 2,
		Backoff: 500 * time.Microsecond, BackoffCap: 4 * time.Millisecond, Seed: 7,
		Events: []serve.FaultEvent{
			{Shard: 1, At: 9, Kind: serve.FaultCrash, RecoverAfter: -1},
			{Shard: 0, At: 3, Kind: serve.FaultStall, Stall: 1500 * time.Microsecond},
		},
	}
	if !reflect.DeepEqual(p, want) {
		t.Errorf("Plan() = %+v, want %+v", p, want)
	}
	if got := (&FaultSpec{}).Plan(); got.Degraded != serve.DegradedFail || got.CheckpointEvery != 0 {
		t.Errorf("zero spec must plan to fail-fast defaults, got %+v", got)
	}
}

// TestLoadSpecResolveFaulted resolves a faulted document end to end: the
// fault plan reaches the serving config, and a lossless crash schedule
// reproduces the fault-free totals exactly.
func TestLoadSpecResolveFaulted(t *testing.T) {
	base := validLoad()
	base.Serve = ServeDef{Shards: 1, Clients: 1, LatencySample: -1}
	mk, gen, cfg, err := base.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	clean, err := serve.Run(context.Background(), cfg, mk, gen)
	if err != nil {
		t.Fatal(err)
	}

	faulted := validLoad()
	faulted.Serve = ServeDef{Shards: 1, Clients: 1, LatencySample: -1}
	faulted.Faults = &FaultSpec{
		CheckpointEvery: 100,
		Events:          []FaultEventSpec{{Shard: 0, At: 250, Kind: "crash"}},
	}
	mk, gen, cfg, err = faulted.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Faults == nil {
		t.Fatal("Resolve dropped the fault plan")
	}
	stats, err := serve.Run(context.Background(), cfg, mk, gen)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Routing != clean.Routing || stats.Adjust != clean.Adjust || stats.Requests != clean.Requests {
		t.Errorf("lossless faulted run diverged: got %d/%d/%d, want %d/%d/%d",
			stats.Requests, stats.Routing, stats.Adjust, clean.Requests, clean.Routing, clean.Adjust)
	}
	if f := stats.Faults; f == nil || f.Crashes != 1 || f.Recoveries != 1 || f.ReplayedRequests != 50 {
		t.Errorf("fault ledger = %+v, want 1 crash, 1 recovery, 50 replayed", stats.Faults)
	}
}

// TestLoadSpecResolve runs a resolved document end to end through the
// serving layer: the constructor sizes networks per shard and the
// generator drives real requests.
func TestLoadSpecResolve(t *testing.T) {
	l := validLoad()
	l.Serve = ServeDef{Shards: 2, Clients: 2, LatencySample: -1}
	mk, gen, cfg, err := l.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	stats, err := serve.Run(context.Background(), cfg, mk, gen)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests != 1000 || stats.Shards != 2 {
		t.Errorf("requests/shards = %d/%d, want 1000/2", stats.Requests, stats.Shards)
	}

	// A constructor failure must surface as a plain error.
	bad := validLoad()
	bad.Network = NetworkDef{Kind: "kary", K: 1} // K < 2 fails at Make time
	if _, _, _, err := bad.Resolve(); err == nil {
		t.Errorf("invalid network def must fail Resolve")
	}
}
