package spec

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ksan-net/ksan/internal/serve"
	"github.com/ksan-net/ksan/internal/workload"
)

// builtinTraceKinds are the trace kinds this package registers.
var builtinTraceKinds = []string{"uniform", "temporal", "hpc", "projector", "facebook", "zipf",
	"hotspot", "exponential", "latest", "sequential", "histogram", "csv", "phased"}

// agree reports a def on which the field-set checker and the reference
// check disagree.
func agree(t *testing.T, def any, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Errorf("%+v: check returned %v, the reference %v", def, got, want)
	}
}

// TestTraceChecksMatchReference enumerates every builtin trace kind over
// in-range, boundary and out-of-range values of every field, with and
// without a stray phase list: the field-set checker must accept exactly
// the defs the former per-kind checks accepted.
func TestTraceChecksMatchReference(t *testing.T) {
	defs := 0
	for _, kind := range builtinTraceKinds {
		for _, n := range []int{0, 1, 2, 20} {
			for _, m := range []int{0, 1, 5} {
				for _, p := range []float64{0, -0.1, 0.5, 1} {
					for _, s := range []float64{0, -1, 1.1, 50} {
						for _, hot := range []float64{0, 0.01, 0.2, 1} {
							for _, hotOpn := range []float64{0, 0.8, 1} {
								for _, seed := range []int64{0, 7} {
									for _, path := range []string{"", "w.txt"} {
										for _, phases := range [][]TraceDef{nil, {{Kind: "uniform", N: 20, M: 5}}} {
											d := TraceDef{Kind: kind, N: n, M: m, P: p, S: s, Hot: hot, HotOpn: hotOpn,
												Seed: seed, Path: path, Phases: phases}
											agree(t, d, d.check(), refTraceCheck(d))
											defs++
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d trace defs", defs)
}

// simplePhases are phase defs for the phased-list differential: valid
// ones of several kinds and node counts, a histogram phase (its node
// count comes from its file), and phases each check rejects.
var simplePhases = []TraceDef{
	{Kind: "uniform", N: 6, M: 10},
	{Kind: "uniform", N: 8, M: 10, Seed: 1},
	{Kind: "temporal", N: 6, M: 10, P: 0.5},
	{Kind: "sequential", N: 6, M: 10},
	{Kind: "zipf", N: 6, M: 10, S: 1.1},
	{Kind: "hotspot", N: 20, M: 10, Hot: 0.2, HotOpn: 0.8},
	{Kind: "histogram", M: 10, Path: "w.txt"},
	{Kind: "histogram", M: 10, Path: "v.txt", Seed: 3},
	{Kind: "histogram", N: 6, M: 10, Path: "w.txt"},
	{Kind: "uniform", N: 1, M: 10},
	{Kind: "uniform", N: 6},
	{Kind: "csv", Path: "t.csv"},
	{Kind: "phased", Phases: []TraceDef{{Kind: "uniform", N: 6, M: 10}}},
	{Kind: "nope", N: 6, M: 10},
}

// mixesHistogram is the one named difference on trace defs: a phased def
// whose outer fields and phases each pass the reference alone, with at
// least one histogram phase and phases that declare one agreed n. The
// reference compared the histogram phase's unset n (0) and rejected it;
// the field-set checker compares declared counts only, and PhasedGen
// compares the resolved ones.
func mixesHistogram(d TraceDef) bool {
	if d.Kind != "phased" || len(d.Phases) == 0 {
		return false
	}
	hist, n := false, 0
	for _, pd := range d.Phases {
		alone := d
		alone.Phases = []TraceDef{pd}
		if refPhasedCheck(alone) != nil {
			return false
		}
		switch {
		case pd.Kind == "histogram":
			hist = true
		case n == 0:
			n = pd.N
		case pd.N != n:
			return false
		}
	}
	return hist && n != 0
}

// TestPhasedChecksMatchReference enumerates phased defs of one and two
// simple phases, with and without stray outer fields: the field-set
// checker agrees with the reference except on mixesHistogram, where the
// reference rejects and the checker accepts.
func TestPhasedChecksMatchReference(t *testing.T) {
	var lists [][]TraceDef
	for _, a := range simplePhases {
		lists = append(lists, []TraceDef{a})
		for _, b := range simplePhases {
			lists = append(lists, []TraceDef{a, b})
		}
	}
	mixed := 0
	for _, phases := range lists {
		for _, outer := range []TraceDef{{}, {Name: "drift"}, {M: 5}, {Seed: 1}, {N: 6}} {
			d := outer
			d.Kind, d.Phases = "phased", phases
			got, want := d.check(), refTraceCheck(d)
			if !mixesHistogram(d) {
				agree(t, d, got, want)
				continue
			}
			mixed++
			if got != nil || want == nil {
				t.Errorf("%+v: mixes histogram phases: check returned %v, the reference %v; want the reference alone to reject", d, got, want)
			}
		}
	}
	if mixed == 0 {
		t.Error("no phase list mixes histogram phases with declared node counts")
	}
	t.Logf("%d phase lists, %d mix histogram phases", 5*len(lists), mixed)
}

// TestNetworkChecksMatchReference enumerates every network kind over k,
// alpha and valid, stray and invalid policies.
func TestNetworkChecksMatchReference(t *testing.T) {
	policies := []*PolicyDef{nil,
		{Trigger: "always", Adjuster: "splay"},
		{Trigger: "never", Adjuster: "none"},
		{Trigger: "alpha", Alpha: 10, Adjuster: "rebuild-wb"},
		{Trigger: "every", M: 2, Adjuster: "semi-splay"},
		{Trigger: "alpha", Alpha: 10, M: 2, Adjuster: "splay"},
		{Trigger: "always", Adjuster: "teleport"},
	}
	for _, kind := range []string{"kary", "centroid", "splaynet", "lazy", "full", "centroid-tree", "uniform-opt"} {
		for _, k := range []int{0, 1, 2, 3} {
			for _, alpha := range []int64{-1, 0, 1, 100} {
				for _, pd := range policies {
					d := NetworkDef{Kind: kind, K: k, Alpha: alpha, Policy: pd}
					_, err := d.Spec()
					agree(t, d, err, refNetworkCheck(d))
				}
			}
		}
	}
}

// TestTriggerChecksMatchReference enumerates every trigger, and an
// unknown one, over m, alpha, cooldown and adjusters of both repertoires.
func TestTriggerChecksMatchReference(t *testing.T) {
	for _, trigger := range []string{"always", "never", "every", "first", "alpha", "sometimes"} {
		for _, m := range []int64{-1, 0, 1, 3} {
			for _, alpha := range []int64{-1, 0, 1, 10} {
				for _, cooldown := range []int64{-1, 0, 5} {
					for _, adjuster := range []string{"splay", "semi-splay", "none", "teleport"} {
						pd := &PolicyDef{Trigger: trigger, M: m, Alpha: alpha, Cooldown: cooldown, Adjuster: adjuster}
						for _, adjusters := range [][]string{treeAdjusterNames, triggerOnlyAdjusters} {
							agree(t, pd, pd.check("kary", adjusters...), refPolicyCheck(pd, "kary", adjusters...))
						}
					}
				}
			}
		}
	}
}

// TestFaultChecksMatchReference compares the fault block's check with
// the reference on TestFaultSpecValidation's specs, valid specs and the
// corners where they differ. Three differences are named:
//   - "rejected at Run start": the reference accepted a block whose plan
//     serve.Run refuses at start; the check may now reject it. These are
//     two events at one at on one shard and a stall_ms that rounds to a
//     zero duration (TestFaultSpecValidation asserts both are rejected);
//   - "beyond a duration's range": the reference accepted a duration
//     whose conversion to time.Duration is implementation-defined; the
//     check rejects it on every platform, naming the field;
//   - "sub-nanosecond plans to zero": a negative duration above -1 ns, or
//     a crash's stall_ms below 1 ns, maps to a zero duration that the
//     plan accepts, where the reference rejected the document's value.
func TestFaultChecksMatchReference(t *testing.T) {
	const atRun, beyond, subNs = "rejected at Run start", "beyond a duration's range", "sub-nanosecond plans to zero"
	event := func(ev FaultEventSpec) *FaultSpec { return &FaultSpec{Events: []FaultEventSpec{ev}} }
	cases := invalidFaultSpecs()
	for name, f := range map[string]*FaultSpec{
		"zero":                                {},
		"valid":                               validFaults(),
		"stall of 1 ns":                       event(FaultEventSpec{At: 1, Kind: "stall", StallMs: 1e-6}),
		"two shards at one at":                {Events: []FaultEventSpec{{Shard: 0, At: 5, Kind: "crash"}, {Shard: 1, At: 5, Kind: "crash"}}},
		"shard beyond the run":                event(FaultEventSpec{Shard: 9, At: 1, Kind: "crash"}),
		"timeout_ms beyond the range":         {TimeoutMs: 1e13},
		"stall_ms beyond the range":           event(FaultEventSpec{At: 1, Kind: "stall", StallMs: 1e300}),
		"negative sub-ns timeout_ms":          {TimeoutMs: -1e-7},
		"negative sub-ns backoff_ms":          {BackoffMs: -1e-7},
		"negative sub-ns backoff_cap_ms":      {BackoffCapMs: -1e-7},
		"crash with sub-ns stall_ms":          event(FaultEventSpec{At: 1, Kind: "crash", StallMs: 1e-7}),
		"crash with negative sub-ns stall_ms": event(FaultEventSpec{At: 1, Kind: "crash", StallMs: -1e-7}),
	} {
		cases[name] = f
	}
	diffs := map[string]string{
		"two events at one at":                atRun,
		"stall_ms rounds to zero":             atRun,
		"timeout_ms beyond the range":         beyond,
		"stall_ms beyond the range":           beyond,
		"negative sub-ns timeout_ms":          subNs,
		"negative sub-ns backoff_ms":          subNs,
		"negative sub-ns backoff_cap_ms":      subNs,
		"crash with sub-ns stall_ms":          subNs,
		"crash with negative sub-ns stall_ms": subNs,
	}
	for name, f := range cases {
		got, want := f.check(), refFaultCheck(f)
		switch diffs[name] {
		case "":
			agree(t, f, got, want)
		case atRun:
			if want != nil {
				t.Errorf("%s: the reference rejected the block: %v", name, want)
			}
			// Only a plan that fails its check is run: it must fail at
			// start, before any request.
			if got != nil {
				if err := runFaults(f); err == nil {
					t.Errorf("%s: check returned %v, but serve.Run accepted the plan", name, got)
				}
			}
		case beyond:
			if want != nil {
				t.Errorf("%s: the reference rejected the block: %v", name, want)
			}
			if field := strings.Fields(name)[0]; got == nil || !strings.Contains(got.Error(), field) {
				t.Errorf("%s: check returned %v, want an error naming %s", name, got, field)
			}
		case subNs:
			if got != nil || want == nil {
				t.Errorf("%s: check returned %v, the reference %v; want only the reference to reject", name, got, want)
			}
		}
	}
}

// validFaults is a fault block with every field set.
func validFaults() *FaultSpec {
	return &FaultSpec{CheckpointEvery: 100, Degraded: "stale", TimeoutMs: 2.5, Retries: 3,
		BackoffMs: 0.5, BackoffCapMs: 8, Seed: 99, Events: []FaultEventSpec{
			{Shard: 0, At: 50, Kind: "crash", RecoverAfter: 2},
			{Shard: 1, At: 10, Kind: "stall", StallMs: 1.5}}}
}

// runFaults starts a two-shard serving run of validLoad under f's plan
// and returns Run's error.
func runFaults(f *FaultSpec) error {
	l := validLoad()
	l.Serve = ServeDef{Shards: 2, Clients: 1, MaxRequests: 10, LatencySample: -1}
	mk, gen, cfg, err := l.Resolve()
	if err != nil {
		return fmt.Errorf("resolving the unfaulted load: %w", err)
	}
	cfg.Faults = f.Plan()
	_, err = serve.Run(context.Background(), cfg, mk, gen)
	return err
}

// TestPhasedMixesHistogramPhases: a histogram phase takes its node count
// from its weights file, so it mixes with phases that declare n, in
// either order; the resolved counts must still agree, which PhasedGen
// checks.
func TestPhasedMixesHistogramPhases(t *testing.T) {
	dir := t.TempDir()
	weights := func(count int) string {
		path := filepath.Join(dir, fmt.Sprintf("%d.txt", count))
		if err := os.WriteFile(path, []byte(strings.Repeat("1\n", count)), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	six, five := weights(6), weights(5)
	uniform := TraceDef{Kind: "uniform", N: 6, M: 10, Seed: 1}
	for _, histFirst := range []bool{false, true} {
		phased := func(path string) TraceDef {
			hist := TraceDef{Kind: "histogram", M: 10, Path: path, Seed: 2}
			if histFirst {
				return TraceDef{Kind: "phased", Phases: []TraceDef{hist, uniform}}
			}
			return TraceDef{Kind: "phased", Phases: []TraceDef{uniform, hist}}
		}
		g, err := phased(six).Resolve()
		if err != nil {
			t.Fatalf("histogram first %v: %v", histFirst, err)
		}
		tr, err := workload.Collect(g)
		if err != nil {
			t.Fatalf("histogram first %v: %v", histFirst, err)
		}
		if tr.N != 6 || tr.Len() != 20 {
			t.Errorf("histogram first %v: streamed %d requests over %d nodes, want 20 over 6", histFirst, tr.Len(), tr.N)
		}
		if _, err := phased(five).Resolve(); err == nil || !strings.Contains(err.Error(), "addresses 5") {
			t.Errorf("histogram first %v: a 5-weight file resolved with error %v, want PhasedGen's node count error", histFirst, err)
		}
	}
}
