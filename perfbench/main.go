// Command perfbench is the repository benchmark. It serves one of four
// workloads through the public spec, serve, statictree and policy APIs,
// in rounds of set-up plus a closed-loop serving run, for a given number
// of seconds; checks every round's outputs; and prints the end-to-end
// metrics, or with --trace 1 the per-layer metrics of a traced run, as
// one JSON object on the last line of standard output. README.md
// describes the workloads and the metrics.
//
// Usage, from the root of the repository:
//
//	bash perfbench/run.sh --workload splay-temporal-k4 --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// options is one invocation. scale shrinks every round's trace; the
// command line always runs at full size (tests use small instances).
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
}

// minRounds is the fewest rounds a run makes, whatever --seconds says, so
// that every reported median has at least three values.
const minRounds = 3

// minRequests is the smallest round: the lazy workload's fault schedule
// needs a checkpoint boundary past its first interval.
const minRequests = 20_000

// roundSize is the trace length of one round of w at the given scale.
func roundSize(w *workloadDef, scale float64) int {
	return max(int(float64(w.requests)*scale), minRequests)
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run (required)")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "seed of the generated requests")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long to measure, in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: a traced run and the per-layer metrics")
	flag.Parse()
	o.trace, o.scale = trace == 1, 1
	if o.workload == "" || (trace != 0 && trace != 1) || o.seconds <= 0 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the serving layer sees.
var endToEnd = []metricDef{
	{"throughput_rps", "req/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"cpu_us_per_req", "us/req"},
	{"routing_per_req", "hops/req"},
	{"cost_per_req", "cost/req"},
	{"healthy_share", "fraction"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// errCheck marks a failed output check: the run still prints its result
// line, with correct set to false.
var errCheck = errors.New("output check failed")

func run(o options, stdout io.Writer) error {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return err
	}
	m := roundSize(w, o.scale)
	fmt.Fprintf(stdout, "workload %s  seed %d  %d requests per round  S=%d C=%d\n",
		w.name, o.seed, m, w.shards, w.clients)
	var res *result
	if o.trace {
		res, err = runTraced(w, o, m, stdout)
	} else {
		res, err = runMeasured(w, o, m, stdout)
	}
	if res == nil {
		return err
	}
	res.Correct = err == nil
	line, merr := json.Marshal(res)
	if merr != nil {
		return merr
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// rounds runs rounds until the run has lasted o.seconds (and at least
// minRounds of them), checking each. each runs one round; it may run an
// untraced and a traced one, which is why it returns a slice.
func rounds(w *workloadDef, o options, m int, stdout io.Writer, each func() ([]*round, error)) ([]*round, error) {
	var out []*round
	start := time.Now()
	for len(out) < minRounds || time.Since(start).Seconds() < o.seconds {
		rs, err := each()
		if err != nil {
			return nil, err
		}
		for _, r := range rs {
			printRound(stdout, len(out), r)
			if err := checkRound(w, r, m); err != nil {
				return out, fmt.Errorf("%w: round %d: %v", errCheck, len(out), err)
			}
			out = append(out, r)
		}
	}
	if err := checkRun(w, out, o.seed, o.scale == 1); err != nil {
		return out, fmt.Errorf("%w: %v", errCheck, err)
	}
	return out, nil
}

func printRound(w io.Writer, i int, r *round) {
	s := r.stats
	lat := s.LatencyHist
	mode := "untraced"
	if r.tr != nil {
		mode = "traced"
	}
	fmt.Fprintf(w, "round %2d %-8s setup %.4f s  served %d in %.4f s (%.0f req/s)  routing %d adjust %d  "+
		"latency p50 %.3f us p99 %.3f us over %d samples (%d beyond p99)  cpu %.3f us/req  peak rss %.1f MiB\n",
		i, mode, r.setupS, r.served(), s.Elapsed.Seconds(), float64(r.served())/s.Elapsed.Seconds(),
		s.Routing, s.Adjust, percentile(lat, 0.5)/1e3, percentile(lat, 0.99)/1e3, lat.Count(),
		lat.Count()-int64(float64(lat.Count())*0.99), float64(r.cpuNs)/float64(r.served())/1e3, peakRSSMiB())
}

// runMeasured is the untraced run: the end-to-end metrics, medians over
// rounds where a round gives a value.
func runMeasured(w *workloadDef, o options, m int, stdout io.Writer) (*result, error) {
	rs, err := rounds(w, o, m, stdout, func() ([]*round, error) {
		r, err := runRound(w, o.seed, m, nil)
		return []*round{r}, err
	})
	if rs == nil {
		return nil, err
	}
	// Every run of the one-shard, one-client, fault-free workload replays
	// a round through the sequential engine; the frozen offline workload's
	// replay costs about a round and runs in traced runs only.
	peakRSS := peakRSSMiB()
	if err == nil && w.shards == 1 && w.clients == 1 && w.faults == nil {
		res, rerr := engineReplay(rs[0].inst)
		if rerr != nil {
			return nil, rerr
		}
		err = checkEngine(rs[0], res)
	}
	res := &result{Metrics: map[string]metricValue{}}
	var thr, p50, p99, setup, cpu []float64
	var requests, routing, adjust, healthy int64
	for _, r := range rs {
		s := r.stats
		res.Attempted += int64(m)
		res.Failed += r.failed()
		thr = append(thr, float64(r.served())/s.Elapsed.Seconds())
		p50 = append(p50, percentile(s.LatencyHist, 0.50)/1e3)
		p99 = append(p99, percentile(s.LatencyHist, 0.99)/1e3)
		setup = append(setup, r.setupS)
		cpu = append(cpu, float64(r.cpuNs)/float64(r.served())/1e3)
		requests += s.Requests
		routing += s.Routing
		adjust += s.Adjust
		healthy += s.Requests + s.WarmupRequests
	}
	values := map[string]float64{
		"throughput_rps":  median(thr),
		"latency_p50_us":  median(p50),
		"latency_p99_us":  median(p99),
		"setup_s":         median(setup),
		"peak_rss_mb":     peakRSS,
		"cpu_us_per_req":  median(cpu),
		"routing_per_req": float64(routing) / float64(requests),
		"cost_per_req":    float64(routing+adjust) / float64(requests),
		"healthy_share":   float64(healthy) / float64(res.Attempted),
	}
	for _, md := range endToEnd {
		res.Metrics[md.name] = metricValue{Value: values[md.name], Unit: md.unit}
	}
	return res, err
}
