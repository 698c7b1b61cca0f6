package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRenders pins one ascii render and one dot render byte for byte.
func TestRenders(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-topo", "balanced", "-n", "7", "-k", "3"}, `5 r=[5 6]
├─ 2 r=[2 3]
│  ├─ 1 r=[0.3 0.7]
│  ├─ 3 r=[2.3 2.7]
│  └─ 4 r=[3.3 3.7]
├─ 6 r=[5.3 5.7]
└─ 7 r=[6.3 6.7]
`},
		{[]string{"-topo", "centroid", "-n", "6", "-k", "2", "-format", "dot"}, `digraph ksan {
  node [shape=record];
  n6 [label="6|6"];
  n6 -> n2;
  n2 [label="2|2"];
  n2 -> n1;
  n1 [label="1|0.5"];
  n2 -> n4;
  n4 [label="4|4"];
  n4 -> n3;
  n3 [label="3|2.5"];
  n4 -> n5;
  n5 [label="5|4.5"];
}
`},
	} {
		var stdout, stderr bytes.Buffer
		code, err := run(tc.args, &stdout, &stderr)
		if code != 0 || err != nil {
			t.Fatalf("ksanviz %s: exit %d, err %v\n%s", strings.Join(tc.args, " "), code, err, stderr.String())
		}
		if got := stdout.String(); got != tc.want {
			t.Errorf("ksanviz %s:\ngot:\n%s\nwant:\n%s", strings.Join(tc.args, " "), got, tc.want)
		}
	}
}

// TestBadFlags pins the usage errors: each exits 2 and writes nothing to
// stdout. The -format check comes before the topology is built: a bad
// format on a topology that cannot be built still exits 2, not 1.
func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-format", "bogus"},
		{"-format", "bogus", "-topo", "balanced", "-n", "-5"},
		{"-topo", "bogus"},
		{"-nodes", "5"},
		{"-n", "five"},
	} {
		var stdout, stderr bytes.Buffer
		if code, err := run(args, &stdout, &stderr); code != 2 || stdout.Len() > 0 {
			t.Errorf("ksanviz %s: exit %d, err %v, %d bytes of output; want exit 2 and none",
				strings.Join(args, " "), code, err, stdout.Len())
		}
	}
	var stdout, stderr bytes.Buffer
	if code, err := run([]string{"-n", "-5"}, &stdout, &stderr); code != 1 || err == nil {
		t.Errorf("ksanviz -n -5: exit %d, err %v; want exit 1 with the build error", code, err)
	}
}
