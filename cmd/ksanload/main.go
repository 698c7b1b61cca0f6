// Command ksanload drives the concurrent sharded serving layer
// (internal/serve) against one network × trace pair described by a JSON
// load document, and reports aggregate throughput, routing/adjustment
// cost, and closed-loop latency percentiles from mergeable streaming
// histograms.
//
// Usage:
//
//	ksanload -load file.json [-format table|json|csv]
//	         [-shards S] [-clients C] [-target OPS] [-warmup N]
//	         [-max-requests M] [-duration 30s] [-latency-sample K]
//	         [-rate] [-strip-timing] [-cpuprofile file] [-memprofile file]
//
// The load document (see DESIGN.md §11 and testdata/golden_load.json for
// a sample) holds a network def, a trace def, a serve block, and
// optionally a faults block scripting deterministic crash/stall schedules
// with checkpoint+replay recovery (DESIGN.md §12, testdata/
// faulted_load.json); every serve flag above overrides the corresponding
// document field when set.
// -rate streams live aggregate requests/sec samples to stderr once per
// second while the run is in flight.
//
// -format picks the result encoding: "table" renders a human summary
// (aggregate totals, latency and routing percentiles, per-shard rows),
// "json" emits the run as one report.Record JSON line, "csv" as a CSV
// row — the same stable external schema the experiment sinks write, so
// serving results land in the same analysis pipelines as engine grids.
//
// -strip-timing zeroes every wall-clock-derived field (elapsed,
// throughput, latency percentiles) in json/csv output, leaving only the
// deterministic cost fields; with one shard and one client the remaining
// record is bit-reproducible across runs and machines, which is what the
// checked-in golden pins in CI.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/ksan-net/ksan/internal/report"
	"github.com/ksan-net/ksan/internal/serve"
	"github.com/ksan-net/ksan/internal/spec"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ksanload:", err)
	}
	os.Exit(code)
}

// run executes one ksanload invocation with the given command-line
// arguments and returns the process exit code: 0 on success, 1 when the
// run itself fails, 2 on a usage or document error.
func run(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("ksanload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		load, format, cpuprofile, memprofile   string
		shards, clients, warmup, latencySample int
		target                                 float64
		maxRequests                            int64
		duration                               time.Duration
		rate, stripTiming                      bool
	)
	fs.StringVar(&load, "load", "", "JSON load document to run (required)")
	fs.StringVar(&format, "format", "table", "result format: table, json or csv")
	fs.IntVar(&shards, "shards", -1, "override: number of shards")
	fs.IntVar(&clients, "clients", -1, "override: number of closed-loop client routines")
	fs.Float64Var(&target, "target", -1, "override: aggregate target throughput, requests/sec (0 = unthrottled)")
	fs.IntVar(&warmup, "warmup", -1, "override: per-client warmup requests excluded from measurement")
	fs.Int64Var(&maxRequests, "max-requests", -1, "override: total request budget (0 = the whole stream)")
	fs.DurationVar(&duration, "duration", -1, "override: wall-clock run cap (0 = none)")
	fs.IntVar(&latencySample, "latency-sample", 0, "override: measure latency on every k-th request (-1 = off, 0 = keep document setting)")
	fs.BoolVar(&rate, "rate", false, "stream live aggregate requests/sec to stderr")
	fs.BoolVar(&stripTiming, "strip-timing", false, "zero wall-clock-derived fields in json/csv output (deterministic golden mode)")
	fs.StringVar(&cpuprofile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&memprofile, "memprofile", "", "write a pprof heap profile taken at run end to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, nil
		}
		return 2, nil // the flag set has already printed the error and the usage
	}

	if load == "" {
		return 2, fmt.Errorf("-load is required (a JSON load document; see DESIGN.md §11)")
	}
	switch format {
	case "table", "json", "csv":
	default:
		return 2, fmt.Errorf("unknown -format %q (want table, json or csv)", format)
	}

	f, err := os.Open(load)
	if err != nil {
		return 2, err
	}
	doc, err := spec.DecodeLoad(f)
	f.Close()
	if err != nil {
		return 2, err
	}
	mk, gen, cfg, err := doc.Resolve()
	if err != nil {
		return 2, err
	}

	// Flag overrides beat the document's serve block.
	if shards >= 0 {
		cfg.Shards = shards
	}
	if clients >= 0 {
		cfg.Clients = clients
	}
	if target >= 0 {
		cfg.TargetOps = target
	}
	if warmup >= 0 {
		cfg.Warmup = warmup
	}
	if maxRequests >= 0 {
		cfg.MaxRequests = maxRequests
	}
	if duration >= 0 {
		cfg.Duration = duration
	}
	switch {
	case latencySample > 0:
		cfg.LatencySample = latencySample
	case latencySample == -1:
		cfg.LatencySample = 0
	}
	if rate {
		cfg.OnRate = func(s serve.RateSample) {
			fmt.Fprintf(stderr, "[%8s] %d requests, %.0f req/s\n",
				s.Elapsed.Round(time.Millisecond), s.Requests, s.Rate)
		}
	}

	if cpuprofile != "" {
		pf, err := os.Create(cpuprofile)
		if err != nil {
			return 2, err
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			pf.Close()
			return 2, err
		}
		defer func() {
			pprof.StopCPUProfile()
			pf.Close()
		}()
	}
	// Like the CPU profile, the heap profile flushes in a defer so it is
	// written even when the run itself fails — profiling a failing run is
	// exactly when the data matters.
	if memprofile != "" {
		mf, err := os.Create(memprofile)
		if err != nil {
			return 2, err
		}
		defer func() {
			runtime.GC() // settle accounting so the profile reflects live objects
			if err := pprof.Lookup("heap").WriteTo(mf, 0); err != nil {
				fmt.Fprintln(stderr, "ksanload: writing heap profile:", err)
			}
			mf.Close()
		}()
	}

	stats, err := serve.Run(context.Background(), cfg, mk, gen)
	if err != nil {
		return 1, err
	}

	switch format {
	case "table":
		printTable(stdout, stats)
	case "json":
		sink := report.NewJSONLSink(stdout)
		if err := sink.Record(recordOf(stats, stripTiming)); err != nil {
			return 1, err
		}
		if err := sink.Flush(); err != nil {
			return 1, err
		}
	case "csv":
		sink := report.NewCSVSink(stdout)
		if err := sink.Record(recordOf(stats, stripTiming)); err != nil {
			return 1, err
		}
		if err := sink.Flush(); err != nil {
			return 1, err
		}
	}
	return 0, nil
}

// recordOf flattens a serving run into the sinks' stable external schema.
// Latency percentiles convert from the histogram's nanoseconds to the
// schema's microseconds.
func recordOf(s *serve.Stats, stripTiming bool) report.Record {
	rec := report.Record{
		Network:        s.Network,
		Trace:          s.Trace,
		Requests:       s.Requests,
		Routing:        s.Routing,
		Adjust:         s.Adjust,
		Total:          s.Total(),
		WarmupRequests: s.WarmupRequests,
		WarmupRouting:  s.WarmupRouting,
		WarmupAdjust:   s.WarmupAdjust,
		P50Routing:     s.RoutingHist.Percentile(0.50),
		P99Routing:     s.RoutingHist.Percentile(0.99),
		Shards:         s.Shards,
		Clients:        s.Clients,
		CrossShard:     s.CrossShard,
	}
	if s.Requests > 0 {
		rec.AvgRouting = float64(s.Routing) / float64(s.Requests)
	}
	if f := s.Faults; f != nil {
		rec.Crashes = f.Crashes
		rec.Recoveries = f.Recoveries
		rec.Checkpoints = f.Checkpoints
		rec.ReplayedRequests = f.ReplayedRequests
		rec.Stalls = f.Stalls
		rec.Timeouts = f.Timeouts
		rec.Retries = f.Retries
		rec.FailedRequests = f.FailedRequests
		rec.DegradedRequests = f.DegradedRequests
		rec.DegradedRouting = f.DegradedRouting
	}
	if !stripTiming {
		rec.ElapsedSeconds = s.Elapsed.Seconds()
		rec.Throughput = s.Throughput
		rec.P50LatencyUs = s.LatencyHist.Percentile(0.50) / 1e3
		rec.P99LatencyUs = s.LatencyHist.Percentile(0.99) / 1e3
		rec.MaxLatencyUs = float64(s.LatencyHist.Max()) / 1e3
	}
	return rec
}

// printTable renders the human summary: aggregate totals, percentiles,
// and one row per shard.
func printTable(w io.Writer, s *serve.Stats) {
	fmt.Fprintf(w, "network   %s\ntrace     %s\n", s.Network, s.Trace)
	fmt.Fprintf(w, "shards    %d    clients %d\n", s.Shards, s.Clients)
	fmt.Fprintf(w, "requests  %d (warmup %d)    cross-shard %d (warmup %d)\n",
		s.Requests, s.WarmupRequests, s.CrossShard, s.WarmupCross)
	fmt.Fprintf(w, "routing   %d    adjust %d    total %d\n", s.Routing, s.Adjust, s.Total())
	fmt.Fprintf(w, "elapsed   %s    throughput %.0f req/s\n", s.Elapsed.Round(time.Millisecond), s.Throughput)
	if s.RoutingHist.Count() > 0 {
		fmt.Fprintf(w, "routing cost   p50 %.0f  p99 %.0f  max %d\n",
			s.RoutingHist.Percentile(0.50), s.RoutingHist.Percentile(0.99), s.RoutingHist.Max())
	}
	if s.LatencyHist.Count() > 0 {
		fmt.Fprintf(w, "latency (µs)   p50 %.1f  p99 %.1f  max %.1f   (%d sampled)\n",
			s.LatencyHist.Percentile(0.50)/1e3, s.LatencyHist.Percentile(0.99)/1e3,
			float64(s.LatencyHist.Max())/1e3, s.LatencyHist.Count())
	}
	if f := s.Faults; f != nil {
		fmt.Fprintf(w, "faults    crashes %d  recoveries %d  stalls %d  checkpoints %d  replayed %d (routing %d adjust %d)\n",
			f.Crashes, f.Recoveries, f.Stalls, f.Checkpoints, f.ReplayedRequests, f.ReplayRouting, f.ReplayAdjust)
		fmt.Fprintf(w, "clients   rejected %d  timeouts %d  retries %d  late %d\n",
			f.Rejected, f.Timeouts, f.Retries, f.LateReplies)
		fmt.Fprintf(w, "outcomes  failed %d  degraded %d (routing %d)\n",
			f.FailedRequests, f.DegradedRequests, f.DegradedRouting)
	}
	if s.Faults != nil {
		fmt.Fprintf(w, "\n%6s %8s %12s %14s %14s %8s %8s %10s\n",
			"shard", "nodes", "requests", "routing", "adjust", "crashes", "rejected", "replayed")
		for _, ps := range s.PerShard {
			fmt.Fprintf(w, "%6d %8d %12d %14d %14d %8d %8d %10d\n",
				ps.Shard, ps.Nodes, ps.Requests, ps.Routing, ps.Adjust, ps.Crashes, ps.Rejected, ps.Replayed)
		}
		return
	}
	fmt.Fprintf(w, "\n%6s %8s %12s %14s %14s\n", "shard", "nodes", "requests", "routing", "adjust")
	for _, ps := range s.PerShard {
		fmt.Fprintf(w, "%6d %8d %12d %14d %14d\n", ps.Shard, ps.Nodes, ps.Requests, ps.Routing, ps.Adjust)
	}
}
