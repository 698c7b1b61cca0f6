package main

import (
	"context"
	"math/bits"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"github.com/ksan-net/ksan/internal/hist"
	"github.com/ksan-net/ksan/internal/serve"
	"github.com/ksan-net/ksan/internal/sim"
)

// round is one set-up plus one serving run of a workload.
type round struct {
	inst  *instance
	stats *serve.Stats
	tr    *tracer // nil for an untraced round

	setupS    float64 // before serve.Run, plus serve.Run wall time minus Elapsed
	buildS    float64 // inside the network constructor
	cpuNs     int64   // process user+sys CPU from the last constructor call to serve.Run's return
	allocB    int64   // runtime heap allocations over the same interval
	gcCycles  int64
	schedWait *metrics.Float64Histogram // goroutine scheduling latencies over the same interval
}

// runRound sets up and serves one round of m requests, traced when tr is
// not nil. The heap is collected and returned to the system first, so
// that every round starts alike and the peak resident set is the largest
// round's own.
func runRound(w *workloadDef, seed int64, m int, tr *tracer) (*round, error) {
	debug.FreeOSMemory()
	t0 := time.Now()
	inst, err := w.prepare(seed, m)
	if err != nil {
		return nil, err
	}
	r := &round{inst: inst, tr: tr}
	gen := inst.gen
	if tr != nil {
		gen = tr.wrapGen(gen)
	}
	var startCPU int64
	var startRT [3]metrics.Sample
	mk := func(n int) (sim.Network, error) {
		tb := time.Now()
		net, err := inst.mk(n)
		r.buildS += time.Since(tb).Seconds()
		if err == nil && tr != nil {
			net, err = tr.wrapNet(net)
		}
		// The last constructor call ends set-up: serving starts here.
		startCPU = cpuTimeNs()
		readRuntime(&startRT)
		return net, err
	}
	pre := time.Since(t0)
	tRun := time.Now()
	stats, err := serve.Run(context.Background(), inst.cfg, mk, gen)
	wall := time.Since(tRun)
	if err != nil {
		return nil, err
	}
	r.cpuNs = cpuTimeNs() - startCPU
	var endRT [3]metrics.Sample
	readRuntime(&endRT)
	r.allocB = int64(endRT[0].Value.Uint64() - startRT[0].Value.Uint64())
	r.gcCycles = int64(endRT[1].Value.Uint64() - startRT[1].Value.Uint64())
	r.schedWait = histDelta(startRT[2].Value.Float64Histogram(), endRT[2].Value.Float64Histogram())
	r.stats = stats
	r.setupS = (pre + wall - stats.Elapsed).Seconds()
	return r, nil
}

// served counts the requests a round answered: healthy plus degraded.
func (r *round) served() int64 {
	s := r.stats
	n := s.Requests + s.WarmupRequests
	if s.Faults != nil {
		n += s.Faults.DegradedRequests
	}
	return n
}

func (r *round) failed() int64 {
	if r.stats.Faults == nil {
		return 0
	}
	return r.stats.Faults.FailedRequests
}

// clientNsPerReq is the serving wall time per request of one client: each
// of the C closed-loop clients is its own critical path.
func (r *round) clientNsPerReq() float64 {
	return float64(r.stats.Elapsed.Nanoseconds()) * float64(r.stats.Clients) / float64(r.served())
}

func cpuTimeNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func readRuntime(s *[3]metrics.Sample) {
	s[0].Name = "/gc/heap/allocs:bytes"
	s[1].Name = "/gc/cycles/total:gc-cycles"
	s[2].Name = "/sched/latencies:seconds"
	metrics.Read(s[:])
}

func histDelta(a, b *metrics.Float64Histogram) *metrics.Float64Histogram {
	d := &metrics.Float64Histogram{Buckets: b.Buckets, Counts: make([]uint64, len(b.Counts))}
	for i := range b.Counts {
		d.Counts[i] = b.Counts[i] - a.Counts[i]
	}
	return d
}

// runtimeQuantile returns the upper bound of the bucket holding quantile
// q of a runtime/metrics histogram (its lower bound for the open last
// bucket), 0 when it is empty.
func runtimeQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q*float64(total)) + 1
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= rank {
			if hi := h.Buckets[i+1]; hi < 1e300 {
				return hi
			}
			return h.Buckets[i]
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// subBits is log2(hist.ExactLimit): beyond the exact region every
// doubling of the value range splits into 2^(subBits-1) equal buckets.
const subBits = 6

// histWidth is the width of the hist.Hist bucket that starts at v.
func histWidth(v int64) int64 {
	if v < hist.ExactLimit {
		return 1
	}
	return 1 << (bits.Len64(uint64(v)) - subBits)
}

// percentile is h's quantile q interpolated linearly inside its bucket.
// hist.Hist.Percentile reports the bucket's lower bound, which would move
// a microsecond latency in steps of about 3%.
func percentile(h *hist.Hist, q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var cum float64
	for v := int64(0); v <= h.Max(); v += histWidth(v) {
		c := float64(h.BucketCount(v))
		if c > 0 && cum+c >= rank {
			x := float64(v) + float64(histWidth(v))*(rank-cum)/c
			return min(max(x, float64(h.Min())), float64(h.Max()))
		}
		cum += c
	}
	return float64(h.Max())
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
