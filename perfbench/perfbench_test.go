package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"

	"github.com/ksan-net/ksan/internal/hist"
)

// testScale shrinks every workload to a round of minRequests requests.
const testScale = 1e-9

// small returns the workload and its round size at test size.
func small(t *testing.T, name string) (*workloadDef, int) {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return w, roundSize(w, testScale)
}

func TestWrappedTotalsMatchUnwrapped(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w, m := small(t, w.name)
			plain, err := runRound(w, 7, m, nil)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runRound(w, 7, m, newTracer(w.clients))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*round{plain, traced} {
				if err := checkRound(w, r, m); err != nil {
					t.Fatal(err)
				}
			}
			p, q := plain.stats, traced.stats
			if roundTotals(plain) != roundTotals(traced) || p.Requests != q.Requests || p.CrossShard != q.CrossShard {
				t.Fatalf("unwrapped %+v (requests %d, cross %d), wrapped %+v (requests %d, cross %d)",
					roundTotals(plain), p.Requests, p.CrossShard, roundTotals(traced), q.Requests, q.CrossShard)
			}
			if got := traced.tr.gen.draws; got != int64(w.clients*m) {
				t.Fatalf("traced generator drew %d requests, want %d clients × %d", got, w.clients, m)
			}
		})
	}
}

func TestFrozenNetworkIsNeverServedThroughTheWrapper(t *testing.T) {
	w, m := small(t, "offline-opt-projector-k4")
	r, err := runRound(w, 7, m, newTracer(w.clients))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.tr.nets) != 1 {
		t.Fatalf("%d shard networks, want 1", len(r.tr.nets))
	}
	a := r.tr.nets[0].acc
	if a.serves != 0 {
		t.Fatalf("the frozen network's Serve ran %d times; its requests must go through the static oracle", a.serves)
	}
	if a.oracleBuildNs == 0 {
		t.Fatal("serve.Run never took the frozen network's static oracle through the wrapper")
	}
	if r.stats.Routing == 0 {
		t.Fatal("no routing cost served")
	}
}

func TestWrappingKeepsTheCheckpointCount(t *testing.T) {
	w, m := small(t, "lazy-hotspot-faulted")
	plain, err := runRound(w, 7, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runRound(w, 7, m, newTracer(w.clients))
	if err != nil {
		t.Fatal(err)
	}
	want := plain.stats.Faults.Checkpoints
	if want < 2 {
		t.Fatalf("only %d checkpoints at test size", want)
	}
	if got := traced.stats.Faults.Checkpoints; got != want {
		t.Fatalf("wrapped run took %d checkpoints, unwrapped %d", got, want)
	}
	if got := traced.tr.nets[0].acc.checkpoints; got != want {
		t.Fatalf("wrapper saw %d CheckpointInto calls, the ledger counts %d", got, want)
	}
	if got := traced.tr.nets[0].acc.restores; got != traced.stats.Faults.Recoveries {
		t.Fatalf("wrapper saw %d Restore calls, the ledger counts %d recoveries", got, traced.stats.Faults.Recoveries)
	}
}

func TestSeedChangesTheTraceButNotTheShape(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w, m := small(t, w.name)
			a, err := w.prepare(1, m)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.prepare(2, m)
			if err != nil {
				t.Fatal(err)
			}
			if a.gen.Nodes() != b.gen.Nodes() || a.gen.Len() != b.gen.Len() || a.gen.Label() != b.gen.Label() {
				t.Fatalf("seed 1 gives %s n=%d m=%d, seed 2 %s n=%d m=%d",
					a.gen.Label(), a.gen.Nodes(), a.gen.Len(), b.gen.Label(), b.gen.Nodes(), b.gen.Len())
			}
			if a.cfg.Shards != b.cfg.Shards || a.cfg.Clients != b.cfg.Clients || (a.cfg.Faults == nil) != (b.cfg.Faults == nil) {
				t.Fatalf("serve configs differ: %+v vs %+v", a.cfg, b.cfg)
			}
			ta, err := collectPrefix(a.gen, 100)
			if err != nil {
				t.Fatal(err)
			}
			tb, err := collectPrefix(b.gen, 100)
			if err != nil {
				t.Fatal(err)
			}
			same := 0
			for i := range ta.Reqs {
				if ta.Reqs[i] == tb.Reqs[i] {
					same++
				}
			}
			if same == len(ta.Reqs) {
				t.Fatal("seeds 1 and 2 generate the same requests")
			}
		})
	}
}

// benchmarkFile is the part of BENCHMARK.json the program must match.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func TestEveryBenchmarkMetricIsPrintedWithItsUnit(t *testing.T) {
	t.Setenv("CARGO_TARGET_DIR", t.TempDir()) // where the traced run writes its spans
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program defines %d", len(bf.Workloads), len(workloads))
	}
	for i, bw := range bf.Workloads {
		if bw.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, bw.Name, workloads[i].name)
		}
	}
	for _, trace := range []bool{false, true} {
		want := map[string]string{}
		if trace {
			for _, md := range bf.PerLayer {
				want[md.Name] = md.Unit
			}
		} else {
			for _, md := range bf.EndToEnd {
				want[md.Name] = md.Unit
			}
		}
		var out bytes.Buffer
		o := options{workload: "lazy-hotspot-faulted", seed: 3, seconds: 0.001, trace: trace, scale: testScale}
		if err := run(o, &out); err != nil {
			t.Fatalf("trace %v: %v\n%s", trace, err, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not the result: %v", err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Fatalf("result %+v", res)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %v: printed %d metrics, BENCHMARK.json names %d", trace, len(res.Metrics), len(want))
		}
		for name, unit := range want {
			got, ok := res.Metrics[name]
			if !ok {
				t.Errorf("trace %v: metric %s not printed", trace, name)
			} else if got.Unit != unit {
				t.Errorf("trace %v: metric %s printed in %q, BENCHMARK.json says %q", trace, name, got.Unit, unit)
			}
		}
	}
}

func TestGoldenTemporalFromEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a full-size round")
	}
	w, err := lookupWorkload("splay-temporal-k4")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := w.prepare(defaultSeed, w.requests)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engineReplay(inst)
	if err != nil {
		t.Fatal(err)
	}
	want := golden[w.name]
	if res.Routing != want.Routing || res.Adjust != want.Adjust {
		t.Fatalf("engine replay routing %d adjust %d, golden %d %d", res.Routing, res.Adjust, want.Routing, want.Adjust)
	}
}

func TestPercentileInterpolatesInsideTheBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist.Hist
	for range 100000 {
		h.Observe(int64(200 + rng.ExpFloat64()*3000))
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		lo := h.Percentile(q)
		got := percentile(&h, q)
		if got < lo || got >= lo+float64(histWidth(int64(lo))) {
			t.Errorf("q=%v: interpolated %v outside the bucket [%v, %v)", q, got, lo, lo+float64(histWidth(int64(lo))))
		}
	}
}
