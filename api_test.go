package ksan

import (
	"bytes"
	"testing"
)

func TestPublicAPIQuickstart(t *testing.T) {
	// The README quickstart, as a test.
	net, err := NewKArySplayNet(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr := TemporalWorkload(64, 5000, 0.75, 1)
	res := Run(net, tr.Reqs)
	if res.Requests != 5000 || res.Routing <= 0 {
		t.Fatalf("unexpected result %+v", res)
	}
	if err := net.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIStaticPlanning(t *testing.T) {
	tr := ProjecToRWorkload(40, 5000, 2)
	d := DemandFromTrace(tr)
	opt, optCost, err := OptimalStaticTree(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	full, err := FullTree(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	if optCost > TotalDistance(full, d) {
		t.Error("optimal static tree worse than the oblivious baseline")
	}
	res := Run(NewStaticNet("optimal", opt), tr.Reqs)
	if res.Routing != optCost {
		t.Errorf("serving the trace on the optimal tree cost %d, demand says %d", res.Routing, optCost)
	}
	if res.Adjust != 0 {
		t.Error("static network reported adjustment cost")
	}
}

func TestPublicAPINetworksImplementInterface(t *testing.T) {
	makers := []func() Network{
		func() Network { n, _ := NewKArySplayNet(30, 3); return n },
		func() Network { n, _ := NewCentroidSplayNet(30, 2); return n },
		func() Network { n, _ := NewSplayNet(30); return n },
		func() Network { tr, _ := FullTree(30, 2); return NewStaticNet("full", tr) },
	}
	tr := UniformWorkload(30, 2000, 3)
	results := RunAll(makers, tr.Reqs)
	if len(results) != 4 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.Requests != 2000 || r.Routing <= 0 {
			t.Errorf("result %+v implausible", r)
		}
	}
	if results[3].Adjust != 0 {
		t.Error("static net adjusted")
	}
}

func TestRunPanicsOnInvalidTrace(t *testing.T) {
	net, err := NewKArySplayNet(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Run accepted an out-of-range endpoint")
		}
	}()
	Run(net, []Request{{Src: 1, Dst: 7}})
}

func TestPublicAPITraceRoundTrip(t *testing.T) {
	tr := HPCWorkload(50, 300, 4)
	var buf bytes.Buffer
	if err := WriteTraceCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTraceCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() || back.N != tr.N {
		t.Fatal("round trip changed the trace")
	}
}

func TestPublicAPICentroidMatchesOptimal(t *testing.T) {
	for _, n := range []int{17, 63, 200} {
		cen, err := CentroidTree(n, 3)
		if err != nil {
			t.Fatal(err)
		}
		_, opt, err := OptimalUniformTree(n, 3)
		if err != nil {
			t.Fatal(err)
		}
		if TotalDistanceUniform(cen) != opt {
			t.Errorf("n=%d: centroid not uniform-optimal", n)
		}
	}
}

func TestPublicAPIStatsAndBound(t *testing.T) {
	tr := TemporalWorkload(100, 20000, 0.5, 5)
	st := MeasureTrace(tr)
	if st.RepeatFraction < 0.45 || st.RepeatFraction > 0.55 {
		t.Errorf("repeat fraction %.3f", st.RepeatFraction)
	}
	if EntropyBound(tr) <= 0 {
		t.Error("entropy bound not positive")
	}
}

func TestPublicAPIWorstCaseStart(t *testing.T) {
	path, err := NewPathTree(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	net := NewKArySplayNetFromTree(path)
	tr := UniformWorkload(40, 2000, 6)
	Run(net, tr.Reqs)
	if err := net.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
}
