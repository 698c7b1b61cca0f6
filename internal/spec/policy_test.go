package spec

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"github.com/ksan-net/ksan/internal/engine"
	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/workload"
)

// The policy field's validation is strict both ways, like every other
// def parameter: unknown names, out-of-range parameters, set-but-unread
// parameters, unsupported adjusters for a kind, and the none/never
// pairing are all rejected before any grid runs.
func TestPolicyDefValidateRejects(t *testing.T) {
	base := func() *Experiment {
		return &Experiment{
			Networks: []NetworkDef{{Kind: "kary", K: 3, Policy: &PolicyDef{Trigger: "always", Adjuster: "splay"}}},
			Traces:   []TraceDef{{Kind: "uniform", N: 8, M: 10}},
		}
	}
	cases := map[string]*PolicyDef{
		"unknown trigger":     {Trigger: "sometimes", Adjuster: "splay"},
		"unknown adjuster":    {Trigger: "always", Adjuster: "teleport"},
		"always with m":       {Trigger: "always", M: 3, Adjuster: "splay"},
		"never with alpha":    {Trigger: "never", Alpha: 5, Adjuster: "none"},
		"every without m":     {Trigger: "every", Adjuster: "splay"},
		"every with alpha":    {Trigger: "every", M: 3, Alpha: 5, Adjuster: "splay"},
		"first without m":     {Trigger: "first", Adjuster: "splay"},
		"alpha without alpha": {Trigger: "alpha", Adjuster: "splay"},
		"alpha with m":        {Trigger: "alpha", Alpha: 10, M: 2, Adjuster: "splay"},
		"alpha negative cd":   {Trigger: "alpha", Alpha: 10, Cooldown: -1, Adjuster: "splay"},
		"none without never":  {Trigger: "always", Adjuster: "none"},
		"never without none":  {Trigger: "never", Adjuster: "splay"},
	}
	for name, pd := range cases {
		x := base()
		x.Networks[0].Policy = pd
		if err := x.Validate(); err == nil {
			t.Errorf("%s: Validate accepted policy %+v", name, pd)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base policy document rejected: %v", err)
	}

	// Kind-specific repertoires: centroid and splaynet only compose on the
	// trigger axis, lazy is itself a canonical composition.
	for name, def := range map[string]NetworkDef{
		"centroid semi-splay": {Kind: "centroid", K: 2, Policy: &PolicyDef{Trigger: "always", Adjuster: "semi-splay"}},
		"centroid rebuild":    {Kind: "centroid", K: 2, Policy: &PolicyDef{Trigger: "alpha", Alpha: 10, Adjuster: "rebuild-wb"}},
		"splaynet semi-splay": {Kind: "splaynet", Policy: &PolicyDef{Trigger: "always", Adjuster: "semi-splay"}},
		"lazy with policy":    {Kind: "lazy", K: 3, Alpha: 10, Policy: &PolicyDef{Trigger: "always", Adjuster: "splay"}},
	} {
		if _, err := def.Spec(); err == nil {
			t.Errorf("%s: Spec accepted %+v", name, def)
		}
	}

	// The supported cross-kind compositions resolve.
	for name, def := range map[string]NetworkDef{
		"kary lazy-splay":      {Kind: "kary", K: 4, Policy: &PolicyDef{Trigger: "alpha", Alpha: 500, Adjuster: "splay"}},
		"kary hysteresis":      {Kind: "kary", K: 4, Policy: &PolicyDef{Trigger: "alpha", Alpha: 500, Cooldown: 64, Adjuster: "splay"}},
		"kary periodic semi":   {Kind: "kary", K: 3, Policy: &PolicyDef{Trigger: "every", M: 4, Adjuster: "semi-splay"}},
		"kary frozen warmup":   {Kind: "kary", K: 3, Policy: &PolicyDef{Trigger: "first", M: 1000, Adjuster: "splay"}},
		"kary rebuild opt":     {Kind: "kary", K: 3, Policy: &PolicyDef{Trigger: "alpha", Alpha: 100, Adjuster: "rebuild-opt"}},
		"centroid periodic":    {Kind: "centroid", K: 2, Policy: &PolicyDef{Trigger: "every", M: 2, Adjuster: "splay"}},
		"centroid frozen":      {Kind: "centroid", K: 2, Policy: &PolicyDef{Trigger: "never", Adjuster: "none"}},
		"splaynet periodic":    {Kind: "splaynet", Policy: &PolicyDef{Trigger: "every", M: 2, Adjuster: "splay"}},
		"splaynet frozen":      {Kind: "splaynet", Policy: &PolicyDef{Trigger: "never", Adjuster: "none"}},
		"full self-adjusting":  {Kind: "full", K: 3, Policy: &PolicyDef{Trigger: "always", Adjuster: "splay"}},
		"centroid-tree warmup": {Kind: "centroid-tree", K: 3, Policy: &PolicyDef{Trigger: "first", M: 50, Adjuster: "splay"}},
	} {
		if _, err := def.Spec(); err != nil {
			t.Errorf("%s: Spec rejected %+v: %v", name, def, err)
		}
	}
}

func TestPolicyDefComposedLabels(t *testing.T) {
	for _, tc := range []struct {
		def  NetworkDef
		want string
	}{
		{NetworkDef{Kind: "kary", K: 4, Policy: &PolicyDef{Trigger: "alpha", Alpha: 2000, Adjuster: "splay"}},
			"4-ary SplayNet [alpha(2000)×splay]"},
		{NetworkDef{Kind: "kary", K: 3, Policy: &PolicyDef{Trigger: "every", M: 4, Adjuster: "semi-splay"}},
			"3-ary SplayNet [every(4)×semi-splay]"},
		{NetworkDef{Kind: "splaynet", Policy: &PolicyDef{Trigger: "first", M: 9, Adjuster: "splay"}},
			"SplayNet [first(9)×splay]"},
		{NetworkDef{Kind: "full", K: 2, Policy: &PolicyDef{Trigger: "never", Adjuster: "none"}},
			"full 2-ary tree [never×none]"},
		{NetworkDef{Kind: "kary", K: 4, Name: "override", Policy: &PolicyDef{Trigger: "always", Adjuster: "splay"}},
			"override"},
	} {
		ns, err := tc.def.Spec()
		if err != nil {
			t.Fatalf("%+v: %v", tc.def, err)
		}
		if ns.Name != tc.want {
			t.Errorf("label %q, want %q", ns.Name, tc.want)
		}
		if net := ns.Make(32); net.Name() != tc.want {
			t.Errorf("network name %q, want %q", net.Name(), tc.want)
		}
	}
}

func TestPolicyCanonicalCompositionsBitIdentical(t *testing.T) {
	// An explicit canonical policy must reproduce the bare kind exactly:
	// kary+always×splay ≡ kary, and kary+alpha×rebuild-wb ≡ lazy.
	tr := workload.Temporal(48, 6000, 0.7, 4)
	run := func(def NetworkDef) sim.Result {
		ns, err := def.Spec()
		if err != nil {
			t.Fatal(err)
		}
		return seedLoop(ns.Make(48), tr.Reqs)
	}
	plain := run(NetworkDef{Kind: "kary", K: 3})
	composed := run(NetworkDef{Kind: "kary", K: 3, Policy: &PolicyDef{Trigger: "always", Adjuster: "splay"}})
	if plain.Routing != composed.Routing || plain.Adjust != composed.Adjust {
		t.Errorf("kary %+v != explicit always×splay %+v", plain, composed)
	}
	lazy := run(NetworkDef{Kind: "lazy", K: 3, Alpha: 700})
	lazyComposed := run(NetworkDef{Kind: "kary", K: 3, Policy: &PolicyDef{Trigger: "alpha", Alpha: 700, Adjuster: "rebuild-wb"}})
	if lazy.Routing != lazyComposed.Routing || lazy.Adjust != lazyComposed.Adjust {
		t.Errorf("lazy kind %+v != kary alpha×rebuild-wb %+v", lazy, lazyComposed)
	}
}

func TestPolicyTriggerStateFreshPerCell(t *testing.T) {
	// Triggers are stateful; a def shared by several grid cells must get a
	// fresh trigger per constructed network, or cells would contaminate
	// each other. Two cells of the same def must equal two independent
	// single-cell runs.
	def := NetworkDef{Kind: "kary", K: 3, Policy: &PolicyDef{Trigger: "every", M: 7, Adjuster: "splay"}}
	x := &Experiment{
		Networks: []NetworkDef{def},
		Traces: []TraceDef{
			{Kind: "temporal", N: 32, M: 3000, P: 0.6, Seed: 1},
			{Kind: "temporal", N: 32, M: 3000, P: 0.6, Seed: 1},
		},
	}
	nets, traces, opts, err := x.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := engine.New(opts...).RunGrid(context.Background(), nets, traces)
	if err != nil {
		t.Fatal(err)
	}
	if grid[0][0].Result != grid[0][1].Result {
		t.Errorf("identical cells diverged: %+v vs %+v (trigger state leaked across cells)",
			grid[0][0].Result, grid[0][1].Result)
	}
	ns, err := def.Spec()
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.Temporal(32, 3000, 0.6, 1)
	want := seedLoop(ns.Make(32), tr.Reqs)
	if grid[0][0].Result != want {
		t.Errorf("grid cell %+v != independent run %+v", grid[0][0].Result, want)
	}
}

func TestPolicyDefJSONRoundTrip(t *testing.T) {
	x := &Experiment{
		Name: "policy-grid",
		Networks: []NetworkDef{
			{Kind: "kary", K: 4},
			{Kind: "kary", K: 4, Policy: &PolicyDef{Trigger: "alpha", Alpha: 2000, Cooldown: 10, Adjuster: "splay"}},
			{Kind: "centroid-tree", K: 3, Policy: &PolicyDef{Trigger: "first", M: 100, Adjuster: "semi-splay"}},
		},
		Traces: []TraceDef{{Kind: "uniform", N: 16, M: 100}},
	}
	var buf bytes.Buffer
	if err := x.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := back.Encode(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != buf.String() {
		t.Errorf("policy document does not round-trip:\n%s\nvs\n%s", buf.String(), again.String())
	}
	if back.Networks[1].Policy == nil || back.Networks[1].Policy.Cooldown != 10 {
		t.Errorf("policy fields lost in round trip: %+v", back.Networks[1].Policy)
	}
	// Unknown policy fields are rejected like any other unknown field.
	bad := strings.Replace(buf.String(), `"trigger"`, `"trigqer"`, 1)
	if _, err := Decode(strings.NewReader(bad)); err == nil {
		t.Error("unknown policy field decoded")
	}
}
