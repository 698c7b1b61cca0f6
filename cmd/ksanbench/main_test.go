package main

import (
	"bytes"
	"encoding/json"
	"runtime/metrics"
	"strings"
	"testing"
)

// sampleExperiment is the checked-in sample experiment document.
const sampleExperiment = "../../testdata/experiment.json"

// heapAllocs reads the cumulative bytes allocated on the heap.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestPhased10MStreamsInConstantMemory serves the 10M-request phased
// trace on a frozen full 4-ary tree. The trace is streamed, never
// materialized (10M requests would be 160 MB), so the whole run allocates
// well under 1 MiB on the heap.
func TestPhased10MStreamsInConstantMemory(t *testing.T) {
	before := heapAllocs()
	out := runOK(t, "-experiment", "../../testdata/phased10m.json", "-format", "json")
	allocated := heapAllocs() - before
	type cell struct {
		Requests int64 `json:"requests"`
		Routing  int64 `json:"routing"`
	}
	var cells []cell
	dec := json.NewDecoder(strings.NewReader(out))
	for dec.More() {
		var c cell
		if err := dec.Decode(&c); err != nil {
			t.Fatal(err)
		}
		cells = append(cells, c)
	}
	if len(cells) != 1 || cells[0].Requests != 10_000_000 || cells[0].Routing <= 0 {
		t.Fatalf("cells %+v, want one cell serving 10000000 requests with routing > 0", cells)
	}
	if allocated >= 1<<20 {
		t.Errorf("the run allocated %d B on the heap, want under 1 MiB", allocated)
	}
	t.Logf("heap allocated over the run: %d B", allocated)
}

// runOK runs ksanbench with args and fails the test unless it exits 0.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code, err := run(args, &stdout, &stderr)
	if code != 0 || err != nil {
		t.Fatalf("ksanbench %s: exit %d, err %v\nstderr:\n%s", strings.Join(args, " "), code, err, stderr.String())
	}
	return stdout.String()
}

// TestExperimentJSONLCells runs the sample experiment document end to end:
// one JSON object per grid cell (6 networks × 5 traces), each carrying the
// cell schema's fields with a non-empty measurement.
func TestExperimentJSONLCells(t *testing.T) {
	out := runOK(t, "-experiment", sampleExperiment, "-format", "json")
	dec := json.NewDecoder(strings.NewReader(out))
	cells := 0
	for dec.More() {
		var cell map[string]any
		if err := dec.Decode(&cell); err != nil {
			t.Fatalf("cell %d: %v", cells, err)
		}
		for _, key := range []string{"i", "j", "network", "trace", "requests", "routing", "adjust", "series"} {
			if _, ok := cell[key]; !ok {
				t.Errorf("cell %d has no %q field", cells, key)
			}
		}
		requests, _ := cell["requests"].(float64)
		routing, _ := cell["routing"].(float64)
		if requests <= 0 || routing <= 0 {
			t.Errorf("cell %d: requests %v, routing %v; want both > 0", cells, cell["requests"], cell["routing"])
		}
		cells++
	}
	if cells != 30 {
		t.Errorf("%d cells, want 30", cells)
	}
}

// TestExperimentCSVHeader pins the CSV column prefix shared with the
// serving-layer sinks.
func TestExperimentCSVHeader(t *testing.T) {
	out := runOK(t, "-experiment", sampleExperiment, "-format", "csv")
	if !strings.HasPrefix(out, "kind,i,j,network,trace,") {
		header, _, _ := strings.Cut(out, "\n")
		t.Errorf("CSV header %q, want the prefix kind,i,j,network,trace,", header)
	}
}

// TestOnlyUnknownSectionRejected: a misspelt -only name is a usage error
// that lists the valid names, not a silent empty run.
func TestOnlyUnknownSectionRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code, err := run([]string{"-scale", "quick", "-only", "9,ablatoins"}, &stdout, &stderr)
	if code != 2 || err == nil {
		t.Fatalf("exit %d, err %v; want exit 2 with an error", code, err)
	}
	for _, want := range []string{`"9"`, "remark10", "ablations", "lazy"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("a rejected run printed %q", stdout.String())
	}
}

// TestOnlyLazy: -only lazy selects the lazy-vs-reactive section of the
// suite and nothing else.
func TestOnlyLazy(t *testing.T) {
	out := runOK(t, "-scale", "quick", "-only", "lazy")
	if !strings.HasPrefix(out, "Extension: fully reactive vs partially reactive") {
		t.Errorf("output does not open with the lazy table:\n%s", out)
	}
	for _, other := range []string{"Table ", "Remark 10", "Lemma 9", "Theorem 13", "Ablation", "== ksan"} {
		if strings.Contains(out, other) {
			t.Errorf("output has another section (%q):\n%s", other, out)
		}
	}
}
