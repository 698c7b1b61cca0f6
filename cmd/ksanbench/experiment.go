package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"github.com/ksan-net/ksan/internal/engine"
	"github.com/ksan-net/ksan/internal/report"
	"github.com/ksan-net/ksan/internal/spec"
)

// runExperiment loads a JSON experiment document, resolves it through the
// spec registries, streams the grid, and writes results to stdout in the
// requested format and progress lines to stderr. Cells flow to the
// json/csv sinks as they finish; the table format collects and renders
// once the stream drains.
func runExperiment(ctx context.Context, stdout, stderr io.Writer, path, format string, workers int, progress bool) error {
	switch format {
	case "table", "json", "csv":
		// validated before any trace materializes: a format typo must not
		// cost minutes of generation first
	default:
		return fmt.Errorf("unknown -format %q (want table, json or csv)", format)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	x, err := spec.Decode(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}

	nets, traces, opts, err := x.Resolve()
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if workers > 0 {
		// The CLI flag overrides the file's worker bound (options apply in
		// order, last write wins).
		opts = append(opts, engine.WithWorkers(workers))
	}
	start := time.Now()
	if progress {
		// Mid-cell updates from the engine (window boundaries, or every
		// 2048 requests without a window); completion lines come from the
		// stream consumer below, so events at Requests == Total stay quiet
		// here to avoid duplicates. Streams of unknown length (csv traces)
		// report Total < 0 and stay live until the completion line.
		opts = append(opts, engine.WithProgress(func(p engine.Progress) {
			if p.Total < 0 {
				fmt.Fprintf(stderr, "[%8s] %s on %s: %d requests\n",
					time.Since(start).Round(time.Millisecond), p.Network, p.Trace, p.Requests)
			} else if p.Requests < p.Total {
				fmt.Fprintf(stderr, "[%8s] %s on %s: %d/%d requests\n",
					time.Since(start).Round(time.Millisecond), p.Network, p.Trace, p.Requests, p.Total)
			}
		}))
	}
	eng := engine.New(opts...)

	var sink report.Sink
	var cells []engine.Cell
	switch format {
	case "json":
		sink = report.NewJSONLSink(stdout)
	case "csv":
		sink = report.NewCSVSink(stdout)
	case "table":
		// collected below
	}

	total := len(nets) * len(traces)
	done := 0
	var firstErr error
	for c, err := range eng.Stream(ctx, nets, traces) {
		done++
		if progress {
			fmt.Fprintf(stderr, "[%8s] %s on %s done (%d/%d cells)\n",
				time.Since(start).Round(time.Millisecond), c.Result.Name, c.Result.Trace, done, total)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if err != nil {
			continue // partial/failed cells stay out of the output
		}
		if sink != nil {
			if err := sink.Cell(c); err != nil {
				return err
			}
			continue
		}
		cells = append(cells, c)
	}
	if sink != nil {
		if err := sink.Flush(); err != nil {
			return err
		}
	} else {
		fmt.Fprint(stdout, experimentTable(x, cells).Render())
	}
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// experimentTable renders collected cells as an aligned summary table in
// grid order.
func experimentTable(x *spec.Experiment, cells []engine.Cell) report.Table {
	sort.Slice(cells, func(a, b int) bool {
		if cells[a].I != cells[b].I {
			return cells[a].I < cells[b].I
		}
		return cells[a].J < cells[b].J
	})
	title := "Experiment"
	if x.Name != "" {
		title = fmt.Sprintf("Experiment %q", x.Name)
	}
	t := report.Table{
		Title:  title,
		Header: []string{"network", "trace", "requests", "routing", "adjust", "total", "avg routing", "p50", "p99"},
	}
	for _, c := range cells {
		r := c.Result
		t.AddRow(r.Name, r.Trace,
			report.Count(r.Requests), report.Count(r.Routing), report.Count(r.Adjust),
			report.Count(r.Total()), fmt.Sprintf("%.3f", r.AvgRouting()),
			fmt.Sprintf("%.0f", r.P50Routing), fmt.Sprintf("%.0f", r.P99Routing))
	}
	return t
}
