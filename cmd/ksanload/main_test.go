package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// runOK runs ksanload with args and fails the test unless it exits 0.
func runOK(t *testing.T, args ...string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code, err := run(args, &stdout, &stderr)
	if code != 0 || err != nil {
		t.Fatalf("ksanload %s: exit %d, err %v\nstderr:\n%s", strings.Join(args, " "), code, err, stderr.String())
	}
	return stdout.Bytes()
}

// TestGoldens pins the deterministic single-shard, single-client records
// byte for byte: the healthy golden reproduces the engine golden totals
// (routing 123648 / adjust 82864), and the faulted golden reproduces
// them too under three lossless crashes, together with the exact fault
// ledger.
func TestGoldens(t *testing.T) {
	for _, tc := range []struct{ load, golden string }{
		{"testdata/golden_load.json", "testdata/golden.jsonl"},
		{"testdata/faulted_load.json", "testdata/faulted_golden.jsonl"},
	} {
		t.Run(tc.load, func(t *testing.T) {
			got := runOK(t, "-load", tc.load, "-format", "json", "-strip-timing")
			want, err := os.ReadFile(tc.golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output differs from %s:\ngot:\n%s\nwant:\n%s", tc.golden, got, want)
			}
		})
	}
}

// TestCSVHeader pins the CSV column prefix shared with the experiment
// sinks.
func TestCSVHeader(t *testing.T) {
	out := runOK(t, "-load", "testdata/golden_load.json", "-format", "csv", "-strip-timing")
	if !bytes.HasPrefix(out, []byte("kind,i,j,network,trace,")) {
		header, _, _ := bytes.Cut(out, []byte("\n"))
		t.Errorf("CSV header %q, want the prefix kind,i,j,network,trace,", header)
	}
}
