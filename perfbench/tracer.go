package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"iter"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ksan-net/ksan/internal/hist"
	"github.com/ksan-net/ksan/internal/policy"
	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/statictree"
	"github.com/ksan-net/ksan/internal/workload"
)

// sampleMask picks the calls recorded as spans: those whose stream
// position (or serve count) hashes to these bits clear, one in 64. Every
// call is timed either way: timing only the sampled draws made exactly
// those draws slower (the owner goroutine is more often asleep when a
// late request arrives), which biased the sample (README.md).
const sampleMask = 63

// maxSpans bounds each span buffer (one per generator pass and per shard
// network); calls beyond it are still timed and counted.
const maxSpans = 1 << 15

// Span ids: request-scoped spans derive theirs from the stream position
// so that children on other goroutines can name their parent.
func genSpanID(pos int64) int64   { return 2*pos + 1 }
func serveSpanID(pos int64) int64 { return 2*pos + 2 }

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer started; req is the stream position of the request that
// caused the call, -1 where concurrent clients leave it undefined.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
}

// sampled reports whether the call at position x is kept as a span.
func sampled(x int64) bool { return mix64(uint64(x))&sampleMask == 0 }

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// tracer records one serving round from the benchmark's side of the
// layer boundaries: it wraps the generator passed to serve.Run and every
// network the constructor returns, times every call and keeps spans for
// a sample of them.
type tracer struct {
	base    time.Time
	clients int
	cur     atomic.Int64 // stream position the (single) client is serving

	mu    sync.Mutex
	gen   genAcc
	spans []span
	nets  []*tracedNet
}

func newTracer(clients int) *tracer {
	return &tracer{base: time.Now(), clients: clients}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// genAcc accumulates generator passes. A draw's gen time runs from the
// previous draw's hand-off to this one's; its hold time is how long the
// consumer (the client loop, through SplitGen) kept it — routing, the
// owner round trip and accounting.
type genAcc struct {
	draws, genNs, holdNs int64
}

func (a *genAcc) add(b *genAcc) {
	a.draws += b.draws
	a.genNs += b.genNs
	a.holdNs += b.holdNs
}

// wrapGen returns g with every pass traced.
func (t *tracer) wrapGen(g workload.Generator) workload.Generator {
	return &tracedGen{Generator: g, tr: t}
}

type tracedGen struct {
	workload.Generator
	tr *tracer
}

func (g *tracedGen) Requests() iter.Seq2[sim.Request, error] {
	return func(yield func(sim.Request, error) bool) {
		t := g.tr
		var acc genAcc
		var spans []span
		single := t.clients == 1
		defer func() {
			t.mu.Lock()
			t.gen.add(&acc)
			t.spans = append(t.spans, spans...)
			t.mu.Unlock()
		}()
		pos := int64(0)
		handed := t.now() // when the previous draw was handed back
		for rq, err := range g.Generator.Requests() {
			if single {
				t.cur.Store(pos)
			}
			h0 := t.now()
			ok := yield(rq, err)
			h1 := t.now()
			acc.draws++
			acc.genNs += h0 - handed
			acc.holdNs += h1 - h0
			if sampled(pos) && len(spans) < maxSpans {
				req := int64(-1)
				if single {
					req = pos
				}
				spans = append(spans,
					span{ID: genSpanID(pos), Name: "workload.gen", Start: handed, End: h0, Req: req},
					span{ID: serveSpanID(pos), Name: "serve.request", Start: h0, End: h1, Req: req})
			}
			handed = h1
			pos++
			if !ok {
				return
			}
		}
	}
}

// netAcc is one shard network's ledger, written only by its owner
// goroutine and read after serve.Run has shut the owners down.
type netAcc struct {
	serves, busyNs, hops, adjust int64
	fires, fireNs                int64
	checkpoints, checkpointNs    int64
	restores, restoreNs          int64
	oracleBuildNs                int64
	serveHist                    hist.Hist
	spans                        []span
}

// tracedNet forwards everything to the policy net it embeds, so serve.Run
// sees the same checkpoint and static-oracle surface, and times Serve,
// CheckpointInto, Restore and the first StaticOracle call.
type tracedNet struct {
	*policy.Net
	tr  *tracer
	acc netAcc
}

// wrapNet wraps a constructed shard network. Only policy nets exist in
// this benchmark; anything else is a bug in a workload definition.
func (t *tracer) wrapNet(net sim.Network) (*tracedNet, error) {
	pn, ok := net.(*policy.Net)
	if !ok {
		return nil, fmt.Errorf("network %q is %T, not a policy net", net.Name(), net)
	}
	w := &tracedNet{Net: pn, tr: t}
	t.nets = append(t.nets, w)
	return w, nil
}

func (n *tracedNet) Serve(u, v int) sim.Cost {
	t0 := n.tr.now()
	c := n.Net.Serve(u, v)
	t1 := n.tr.now()
	a := &n.acc
	d := t1 - t0
	a.serves++
	a.busyNs += d
	a.hops += c.Routing
	a.adjust += c.Adjust
	a.serveHist.Observe(d)
	if c.Adjust > 0 {
		a.fires++
		a.fireNs += d
	}
	if len(a.spans) < maxSpans {
		if n.tr.clients == 1 {
			if pos := n.tr.cur.Load(); sampled(pos) {
				a.spans = append(a.spans, span{Name: "policy.serve", Start: t0, End: t1,
					Parent: serveSpanID(pos), Req: pos})
			}
		} else if sampled(a.serves) {
			a.spans = append(a.spans, span{Name: "policy.serve", Start: t0, End: t1, Req: -1})
		}
	}
	return c
}

func (n *tracedNet) CheckpointInto(cp *policy.Checkpoint) error {
	t0 := n.tr.now()
	err := n.Net.CheckpointInto(cp)
	t1 := n.tr.now()
	n.acc.checkpoints++
	n.acc.checkpointNs += t1 - t0
	n.acc.spans = append(n.acc.spans, span{Name: "policy.checkpoint", Start: t0, End: t1, Req: n.reqID()})
	return err
}

func (n *tracedNet) Restore(cp *policy.Checkpoint) error {
	t0 := n.tr.now()
	err := n.Net.Restore(cp)
	t1 := n.tr.now()
	n.acc.restores++
	n.acc.restoreNs += t1 - t0
	n.acc.spans = append(n.acc.spans, span{Name: "policy.restore", Start: t0, End: t1, Req: n.reqID()})
	return err
}

func (n *tracedNet) StaticOracle() (*statictree.DistIndex, bool) {
	t0 := n.tr.now()
	ix, ok := n.Net.StaticOracle()
	if ok && n.acc.oracleBuildNs == 0 {
		t1 := n.tr.now()
		n.acc.oracleBuildNs = max(t1-t0, 1)
		n.acc.spans = append(n.acc.spans, span{Name: "statictree.oracle_build", Start: t0, End: t1, Req: -1})
	}
	return ix, ok
}

func (n *tracedNet) reqID() int64 {
	if n.tr.clients == 1 {
		return n.tr.cur.Load()
	}
	return -1
}

// allSpans returns the generator spans followed by every network's,
// numbering the spans that have no request-derived id.
func (t *tracer) allSpans() []span {
	out := append([]span(nil), t.spans...)
	next := int64(1) << 50
	for _, n := range t.nets {
		for _, s := range n.acc.spans {
			s.ID = next
			next++
			out = append(out, s)
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
