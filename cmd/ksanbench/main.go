// Command ksanbench regenerates the tables and figures of the paper's
// evaluation (Section 5) and the appendix observations, and runs arbitrary
// user-defined experiment grids from JSON files.
//
// Usage:
//
//	ksanbench [-scale quick|default|paper] [-only 1,2,...,8|remark10|lemma9|entropy|ablations|lazy]
//	          [-workers N] [-timeout 30m] [-progress] [-cpuprofile file]
//	ksanbench -experiment file.json [-format table|json|csv]
//	          [-workers N] [-timeout 30m] [-progress] [-cpuprofile file]
//
// With no -only flag the whole suite runs in paper order; -only runs the
// named sections of the same suite, still in paper order, and an unknown
// name exits 2 with the list of valid ones. Scales differ in trace length
// and node counts; see DESIGN.md §4 for the exact dimensions and
// EXPERIMENTS.md for paper-vs-measured values. -workers bounds the
// experiment engine's worker pool (default: GOMAXPROCS), -timeout aborts a
// run that exceeds the deadline (partial tables are flushed), and
// -progress streams per-section completion lines to stderr.
//
// With -experiment, the paper suite is skipped and the grid described by
// the JSON experiment document runs instead: every network def × every
// trace def under the file's engine options (see DESIGN.md §6 for the
// schema, testdata/experiment.json for a sample, and EXPERIMENTS.md for a
// walkthrough). -workers overrides the file's worker bound. -format picks
// the result encoding: "table" renders an aligned summary table once the
// grid drains, "json" emits one JSON object per cell (JSON Lines, window
// time-series included) as cells finish, "csv" emits tidy CSV rows (one
// "cell" row per cell plus one "window" row per time-series sample).
//
// -cpuprofile file writes a pprof CPU profile covering the whole run
// (whichever mode), for chasing performance regressions:
// `go tool pprof $(which ksanbench) file`. The profile is flushed even
// when the run fails.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/ksan-net/ksan/internal/experiments"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ksanbench:", err)
	}
	os.Exit(code)
}

// run executes one ksanbench invocation with the given command-line
// arguments and returns the process exit code: 0 on success, 1 when the
// run itself fails, 2 on a usage error. All exits funnel through here so
// the CPU profile (and any future teardown) survives error paths;
// os.Exit skips deferred calls.
func run(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("ksanbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.String("scale", "default", "experiment scale: quick, default or paper")
	only := fs.String("only", "", "comma-separated subset: "+strings.Join(experiments.SectionNames(), ", "))
	workers := fs.Int("workers", 0, "worker pool size for the experiment engine (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	progress := fs.Bool("progress", false, "stream per-section progress lines to stderr")
	experiment := fs.String("experiment", "", "run the grid from this JSON experiment file instead of the paper suite")
	format := fs.String("format", "table", "result format for -experiment runs: table, json or csv")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, nil
		}
		return 2, nil // the flag set has already printed the error and the usage
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return 2, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return 2, err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *experiment != "" {
		if err := runExperiment(ctx, stdout, stderr, *experiment, *format, *workers, *progress); err != nil {
			return 1, err
		}
		return 0, nil
	}
	if *format != "table" {
		return 2, fmt.Errorf("-format requires -experiment (the paper suite always renders tables)")
	}

	sc, err := experiments.ScaleByName(*scale)
	if err != nil {
		return 2, err
	}
	opt := experiments.Options{Workers: *workers}
	if *progress {
		start := time.Now()
		opt.Progress = func(section string) {
			fmt.Fprintf(stderr, "[%8s] %s\n", time.Since(start).Round(time.Millisecond), section)
		}
	}

	if *only == "" {
		err = experiments.RunSuite(ctx, stdout, sc, opt)
	} else {
		names := strings.Split(*only, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
		err = experiments.RunSections(ctx, stdout, sc, opt, names)
		if errors.Is(err, experiments.ErrUnknownSection) {
			return 2, fmt.Errorf("-only: %w", err)
		}
	}
	if err != nil {
		return 1, err
	}
	return 0, nil
}
