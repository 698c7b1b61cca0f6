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
