package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"github.com/ksan-net/ksan/internal/report"
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

// TestContendedRuns serves both golden documents with several clients
// per shard, the runs whose totals depend on the interleaving, and
// checks what does not: the healthy document at 4 shards × 4 clients
// serves its 20 000 requests with cross-shard traffic, and the faulted
// one at 1 shard × 4 clients — four clients contending for one token
// while it crashes — fires its first two crashes, recovers from both,
// checkpoints 1 + 20 times, replays the 500 requests logged since the
// checkpoint before the first crash and fails nothing. Under -race it is
// the single-writer check on the command's whole path.
func TestContendedRuns(t *testing.T) {
	for _, tc := range []struct {
		load, shards string
		check        func(t *testing.T, rec report.Record)
	}{
		{"testdata/golden_load.json", "4", func(t *testing.T, rec report.Record) {
			if rec.CrossShard == 0 {
				t.Error("no cross-shard requests on 4 shards")
			}
		}},
		{"testdata/faulted_load.json", "1", func(t *testing.T, rec report.Record) {
			if rec.Crashes != 2 || rec.Recoveries != 2 || rec.Checkpoints != 21 ||
				rec.ReplayedRequests != 500 || rec.FailedRequests != 0 {
				t.Errorf("crashes %d, recoveries %d, checkpoints %d, replayed %d, failed %d; want 2, 2, 21, 500, 0",
					rec.Crashes, rec.Recoveries, rec.Checkpoints, rec.ReplayedRequests, rec.FailedRequests)
			}
		}},
	} {
		t.Run(tc.load, func(t *testing.T) {
			out := runOK(t, "-load", tc.load, "-shards", tc.shards, "-clients", "4",
				"-max-requests", "20000", "-format", "json")
			var rec report.Record
			if err := json.Unmarshal(out, &rec); err != nil {
				t.Fatalf("%v in %s", err, out)
			}
			if rec.Requests != 20_000 || rec.Clients != 4 {
				t.Errorf("%d requests from %d clients, want 20000 from 4", rec.Requests, rec.Clients)
			}
			tc.check(t, rec)
		})
	}
}
