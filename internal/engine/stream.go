package engine

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sync/atomic"
)

// Cell is one finished cell of a streamed grid: the result of serving
// traces[J] on a fresh networks[I] instance.
type Cell struct {
	I, J   int
	Result Result
}

// errStreamStopped aborts in-flight grid workers after the stream's
// consumer breaks out of the range loop; it never escapes Stream.
var errStreamStopped = errors.New("engine: stream consumer stopped")

// Stream evaluates the cross product of networks × traces on the engine's
// bounded worker pool and yields each cell as it finishes, in completion
// order (the I/J indices identify the cell; collect and index by them to
// recover grid order). Each yielded error is the cell's own: nil for a
// clean run, the construction/validation failure, or ctx.Err() alongside
// the cell's contiguous partial result on cancellation. After the first
// failed cell no new cells are dispatched (in-flight cells still drain),
// matching RunGrid's first-error semantics. Breaking out of the range loop
// stops dispatch and abandons in-flight cells.
//
// On cancellation, cells that were never dispatched are not yielded at
// all — the stream just ends short. A consumer that needs whole-grid
// coverage must check ctx.Err() after the loop (RunGrid does).
//
// Every cell's Result is deterministic across worker counts and
// consumption order (see the package determinism contract); only the
// completion order is not. RunGrid is a thin barrier over Stream.
func (e *Engine) Stream(ctx context.Context, networks []NetworkSpec, traces []TraceSpec) iter.Seq2[Cell, error] {
	return func(yield func(Cell, error) bool) {
		cells := len(networks) * len(traces)
		if cells == 0 {
			return
		}
		type item struct {
			cell Cell
			err  error
		}
		ch := make(chan item)
		stop := make(chan struct{})
		var cellsDone atomic.Int64
		go func() {
			defer close(ch)
			// ParallelFor's error (first cell failure, errStreamStopped, or
			// ctx.Err()) is deliberately dropped: per-cell errors were already
			// delivered through ch, and grid-level cancellation is the
			// caller's ctx to inspect.
			_ = ParallelFor(ctx, e.workers, cells, func(c int) error {
				// Check for a consumer break before starting the cell: the
				// drain loop below re-enables the blocked sends, so without
				// this a worker whose send won the race against <-stop would
				// return nil and be handed another cell to evaluate.
				select {
				case <-stop:
					return errStreamStopped
				default:
				}
				i, j := c/len(traces), c%len(traces)
				cell, err := e.runCell(ctx, networks[i], traces[j], i, j, cells, &cellsDone)
				select {
				case ch <- item{cell: cell, err: err}:
				case <-stop:
					return errStreamStopped
				}
				return err // a failed cell halts dispatch of the rest
			})
		}()
		for it := range ch {
			if !yield(it.cell, it.err) {
				close(stop)
				for range ch { // unblock and drain in-flight workers
				}
				return
			}
		}
	}
}

// runCell evaluates grid cell (i, j): a fresh spec instance serving tr,
// with cell-count progress decoration and a completion progress event.
func (e *Engine) runCell(ctx context.Context, spec NetworkSpec, tr TraceSpec, i, j, cells int, cellsDone *atomic.Int64) (Cell, error) {
	cell := Cell{I: i, J: j}
	nodes := tr.Nodes()
	net := spec.Make(nodes)
	if net == nil {
		return cell, fmt.Errorf("engine: network %q returned nil for n=%d", spec.Name, nodes)
	}
	if f, ok := net.(*failedNetwork); ok {
		return cell, fmt.Errorf("engine: building network %q for n=%d: %w", spec.Name, nodes, f.err)
	}
	res, err := e.runOne(ctx, net, tr.Generator(), tr.Label(), func(p *Progress) {
		p.Cells = int(cellsDone.Load())
		p.CellsTotal = cells
	})
	cell.Result = res
	if err != nil {
		return cell, err
	}
	n := cellsDone.Add(1)
	if e.progress != nil {
		served := int(res.Requests + res.WarmupRequests)
		e.mu.Lock()
		e.progress(Progress{
			Network: res.Name, Trace: tr.Label(),
			Requests: served, Total: served,
			Cells: int(n), CellsTotal: cells,
		})
		e.mu.Unlock()
	}
	return cell, nil
}
