package sim

import "testing"

func TestResultAverages(t *testing.T) {
	r := Result{Requests: 4, Routing: 12, Adjust: 8}
	if r.AvgRouting() != 3 {
		t.Errorf("avg routing %f", r.AvgRouting())
	}
	if r.AvgTotal() != 5 {
		t.Errorf("avg total %f", r.AvgTotal())
	}
	zero := Result{}
	if zero.AvgRouting() != 0 || zero.AvgTotal() != 0 {
		t.Error("zero-request averages must be 0")
	}
}

func TestBatchCostObserveAndMerge(t *testing.T) {
	var a, b BatchCost
	a.Observe(Cost{Routing: 2, Adjust: 1})
	a.Observe(Cost{Routing: 2})
	b.Observe(Cost{Routing: 5, Adjust: 3})
	a.Merge(b)
	if a.Routing != 9 || a.Adjust != 4 {
		t.Fatalf("merged totals %d/%d", a.Routing, a.Adjust)
	}
	if a.Hist.BucketCount(2) != 2 || a.Hist.BucketCount(5) != 1 {
		t.Fatalf("merged hist counts %d/%d", a.Hist.BucketCount(2), a.Hist.BucketCount(5))
	}
	if a.Hist.Count() != 3 || a.Hist.Sum() != 9 {
		t.Fatalf("merged hist summary %d/%d", a.Hist.Count(), a.Hist.Sum())
	}
}
