// Command ksanbench regenerates the tables and figures of the paper's
// evaluation (Section 5) and the appendix observations, and runs arbitrary
// user-defined experiment grids from JSON files.
//
// Usage:
//
//	ksanbench [-scale quick|default|paper] [-only 1,2,...,8|remark10|lemma9|entropy|ablations]
//	          [-workers N] [-timeout 30m] [-progress] [-cpuprofile file]
//	ksanbench -experiment file.json [-format table|json|csv]
//	          [-workers N] [-timeout 30m] [-progress] [-cpuprofile file]
//
// With no -only flag the whole suite runs in paper order. Scales differ in
// trace length and node counts; see DESIGN.md §4 for the exact dimensions
// and EXPERIMENTS.md for paper-vs-measured values. -workers bounds the
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
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/ksan-net/ksan/internal/experiments"
)

func main() {
	scale := flag.String("scale", "default", "experiment scale: quick, default or paper")
	only := flag.String("only", "", "comma-separated subset: 1..8, remark10, lemma9, entropy, ablations")
	workers := flag.Int("workers", 0, "worker pool size for the experiment engine (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	progress := flag.Bool("progress", false, "stream per-section progress lines to stderr")
	experiment := flag.String("experiment", "", "run the grid from this JSON experiment file instead of the paper suite")
	format := flag.String("format", "table", "result format for -experiment runs: table, json or csv")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	flag.Parse()

	// All exits funnel through here so the CPU profile (and any future
	// teardown) survives error paths; os.Exit skips deferred calls.
	code, err := run(*scale, *only, *workers, *timeout, *progress, *experiment, *format, *cpuprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ksanbench:", err)
	}
	os.Exit(code)
}

func run(scale, only string, workers int, timeout time.Duration, progress bool, experiment, format, cpuprofile string) (int, error) {
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
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
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	if experiment != "" {
		if err := runExperiment(ctx, experiment, format, workers, progress); err != nil {
			return 1, err
		}
		return 0, nil
	}
	if format != "table" {
		return 2, fmt.Errorf("-format requires -experiment (the paper suite always renders tables)")
	}

	sc, err := experiments.ScaleByName(scale)
	if err != nil {
		return 2, err
	}
	opt := experiments.Options{Workers: workers}
	if progress {
		start := time.Now()
		opt.Progress = func(section string) {
			fmt.Fprintf(os.Stderr, "[%8s] %s\n", time.Since(start).Round(time.Millisecond), section)
		}
	}

	if only == "" {
		if err := experiments.RunSuite(ctx, os.Stdout, sc, opt); err != nil {
			return 1, err
		}
		return 0, nil
	}

	if err := runOnly(ctx, sc, opt, only); err != nil {
		return 1, err
	}
	return 0, nil
}

// runOnly regenerates the requested subset of the suite.
func runOnly(ctx context.Context, sc experiments.Scale, opt experiments.Options, only string) error {
	eng := opt.NewEngine()
	loads := experiments.MakeWorkloads(sc)
	wants := map[string]bool{}
	for _, s := range strings.Split(only, ",") {
		wants[strings.TrimSpace(s)] = true
	}
	anyTable := false
	for i := 1; i <= 7; i++ {
		if wants[fmt.Sprint(i)] {
			anyTable = true
		}
	}
	if anyTable {
		tables, err := experiments.Tables1Through7Ctx(ctx, eng, loads, sc)
		if err != nil {
			return err
		}
		for i, res := range tables {
			if wants[fmt.Sprint(i+1)] {
				fmt.Println(res.Table.Render())
			}
		}
		opt.Report("tables 1-7 done")
	}
	if wants["8"] {
		_, t8, err := experiments.Table8Ctx(ctx, eng, loads, sc)
		if err != nil {
			return err
		}
		fmt.Println(t8.Render())
		opt.Report("table 8 done")
	}
	if wants["remark10"] {
		tbl, all, err := experiments.CentroidOptimalityCtx(ctx, opt.Workers, []int{10, 30, 60, 100, 250, 500, 999}, []int{2, 3, 5, 10})
		if err != nil {
			return err
		}
		fmt.Println(tbl.Render())
		fmt.Printf("centroid tree optimal on every tested (n,k): %v\n\n", all)
		opt.Report("remark 10 done")
	}
	if wants["lemma9"] {
		tbl, err := experiments.Lemma9ScalingCtx(ctx, opt.Workers, []int{256, 512, 1024, 2048, 4096}, []int{2, 3, 5, 10})
		if err != nil {
			return err
		}
		fmt.Println(tbl.Render())
		opt.Report("lemma 9 done")
	}
	if wants["entropy"] {
		tbl, err := experiments.EntropyBoundCheckCtx(ctx, eng, loads, 3)
		if err != nil {
			return err
		}
		fmt.Println(tbl.Render())
		opt.Report("entropy bound done")
	}
	if wants["ablations"] {
		tr := loads.Temporals[0.5]
		ks := []int{2, 4, 8}
		a1, err := experiments.AblationCostAccountingCtx(ctx, eng, tr, ks)
		if err != nil {
			return err
		}
		fmt.Println(a1.Render())
		a2, err := experiments.AblationSemiSplayOnlyCtx(ctx, eng, tr, ks)
		if err != nil {
			return err
		}
		fmt.Println(a2.Render())
		a3, err := experiments.AblationBlockPolicyCtx(ctx, eng, tr, ks)
		if err != nil {
			return err
		}
		fmt.Println(a3.Render())
		a4, err := experiments.AblationInitialTopologyCtx(ctx, eng, tr, 4)
		if err != nil {
			return err
		}
		fmt.Println(a4.Render())
		a5, err := experiments.AblationPolicyGridCtx(ctx, eng, tr, 4)
		if err != nil {
			return err
		}
		fmt.Println(a5.Render())
		a6, err := experiments.AblationReconvergenceCtx(ctx, opt.Workers, sc)
		if err != nil {
			return err
		}
		fmt.Println(a6.Render())
		opt.Report("ablations done")
	}
	return ctx.Err()
}
