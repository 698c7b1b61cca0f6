package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// runOK runs ksantrace with args and fails the test unless it exits 0.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code, err := run(args, &stdout, &stderr)
	if code != 0 || err != nil {
		t.Fatalf("ksantrace %s: exit %d, err %v\nstderr:\n%s", strings.Join(args, " "), code, err, stderr.String())
	}
	return stdout.String()
}

// TestGenRejectsBadFlags: every out-of-range flag is a usage error with
// the spec's message, never a generator panic or a trace an experiment
// document would reject.
func TestGenRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-kind", "uniform", "-n", "1"}, "n >= 2"},
		{[]string{"-kind", "temporal", "-p", "1.5"}, "p in [0,1)"},
		{[]string{"-kind", "hotspot", "-hot", "0"}, "hot in (0,1)"},
		{[]string{"-kind", "latest", "-s", "0"}, "s > 0"},
		{[]string{"-kind", "exponential", "-s", "0"}, "s > 0"},
		{[]string{"-kind", "zipf", "-s", "-1"}, "s > 0"},
		{[]string{"-m", "-5"}, "m >= 1"},
		{[]string{"-kind", "histogram"}, "needs a path"},
		{[]string{"-kind", "nope"}, "unknown trace kind"},
	} {
		args := append([]string{"gen"}, tc.args...)
		var stdout, stderr bytes.Buffer
		code, err := run(args, &stdout, &stderr)
		if code != 2 || err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ksantrace %s: exit %d, err %v; want exit 2 with %q", strings.Join(args, " "), code, err, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("ksantrace %s wrote a trace: %q", strings.Join(args, " "), stdout.String())
		}
	}
}

// TestGenOutputPinned pins one generated trace byte for byte: the label
// line, the header and the seeded requests.
func TestGenOutputPinned(t *testing.T) {
	got := runOK(t, "gen", "-kind", "temporal", "-n", "8", "-m", "6", "-p", "0.5", "-seed", "3")
	const want = "#temporal-0.50,8\nsrc,dst\n7,8\n1,3\n6,1\n3,7\n3,4\n3,4\n"
	if got != want {
		t.Errorf("gen output\n%q\nwant\n%q", got, want)
	}
}

// TestStatsReadsGenOutput measures a file gen wrote.
func TestStatsReadsGenOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hot.csv")
	if out := runOK(t, "gen", "-kind", "hotspot", "-n", "64", "-m", "5000", "-hot", "0.2", "-hotopn", "0.7", "-seed", "9", "-out", path); out != "" {
		t.Errorf("gen -out also wrote to stdout: %q", out)
	}
	out := runOK(t, "stats", "-in", path)
	for _, want := range []string{
		"trace          hotspot-0.20-0.70\n",
		"nodes          64\n",
		"requests       5000\n",
		"distinct pairs 1628\n",
		"Thm13 bound    51202\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output has no %q:\n%s", want, out)
		}
	}
}
