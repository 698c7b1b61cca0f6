// Package sim defines the cost model of the paper (Section 2): the
// network interface every design implements, the per-request cost, and
// the aggregates the engine (internal/engine) reports when it serves a
// communication trace on a network.
//
// Serving request σ_t=(u,v) on topology G_{t-1} costs the u–v path length
// (routing cost) plus the reconfiguration performed afterwards (adjustment
// cost). Following the paper's experiments, the adjustment cost charges one
// unit per rotation; the raw link-churn metric of the model is available
// separately for the cost-accounting ablation.
package sim

// Cost is the price of serving a single communication request.
type Cost struct {
	// Routing is the path length, in edges, between source and destination
	// in the topology at the time the request is served.
	Routing int64
	// Adjust is the self-adjustment cost charged after serving the request
	// (number of rotations; zero for static topologies).
	Adjust int64
}

// Network is a (possibly self-adjusting) network topology that serves
// communication requests between nodes 1..N().
type Network interface {
	// Name identifies the network design in reports.
	Name() string
	// N returns the number of network nodes.
	N() int
	// Serve routes one request and performs any self-adjustment,
	// returning the cost incurred.
	Serve(src, dst int) Cost
}

// Request is a single communication request from Src to Dst (ids 1..n).
type Request struct {
	Src, Dst int
}

// Result aggregates the cost of serving a trace on one network.
type Result struct {
	Name     string
	Requests int64
	Routing  int64
	Adjust   int64
}

// Total returns routing plus adjustment cost.
func (r Result) Total() int64 { return r.Routing + r.Adjust }

// AvgRouting returns the mean routing cost per request.
func (r Result) AvgRouting() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Routing) / float64(r.Requests)
}

// AvgTotal returns the mean total (routing+adjustment) cost per request.
func (r Result) AvgTotal() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Total()) / float64(r.Requests)
}
