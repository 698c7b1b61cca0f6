// Command ksantrace generates and inspects communication traces in the
// CSV format shared by the library and the benchmark harness. Generation
// and measurement both stream: requests flow generator→CSV and CSV→stats
// one at a time, so trace length is bounded by disk, not memory.
//
// Usage:
//
//	ksantrace gen -kind uniform|temporal|hpc|projector|facebook|zipf|
//	              hotspot|exponential|latest|sequential|histogram \
//	              -n 100 -m 100000 [-p 0.75] [-s 1.1] [-hot 0.1] [-hotopn 0.9] \
//	              [-weights file] [-seed 1] [-out trace.csv]
//	ksantrace stats -in trace.csv
//
// gen resolves its flags as the experiment document's trace def of the
// same kind (DESIGN.md §6), so it accepts exactly the parameters a JSON
// experiment accepts: a value out of range exits 2 with the spec's
// message.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/ksan-net/ksan/internal/spec"
	"github.com/ksan-net/ksan/internal/workload"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ksantrace:", err)
	}
	os.Exit(code)
}

// run executes one ksantrace invocation with the given command-line
// arguments and returns the process exit code: 0 on success, 1 when
// reading or writing a trace fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) (int, error) {
	if len(args) > 0 {
		switch args[0] {
		case "gen":
			return gen(args[1:], stdout, stderr)
		case "stats":
			return stats(args[1:], stdout, stderr)
		}
	}
	fmt.Fprintln(stderr, "usage: ksantrace gen|stats [flags]")
	return 2, nil
}

// parse parses a subcommand's flags, mapping -h to a clean exit.
func parse(fs *flag.FlagSet, args []string) (int, bool) {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, false
		}
		return 2, false // the flag set has already printed the error and the usage
	}
	return 0, true
}

func gen(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kind := fs.String("kind", "uniform", "workload kind: uniform, temporal, hpc, projector, facebook, zipf, hotspot, exponential, latest, sequential, histogram")
	n := fs.Int("n", 100, "number of network nodes")
	m := fs.Int("m", 100000, "number of requests")
	p := fs.Float64("p", 0.5, "temporal complexity parameter (temporal only)")
	s := fs.Float64("s", 1.1, "skew parameter (zipf/latest exponent, exponential decay)")
	hot := fs.Float64("hot", 0.1, "hot-set node fraction (hotspot only)")
	hotOpn := fs.Float64("hotopn", 0.9, "hot-set traffic fraction (hotspot only)")
	weights := fs.String("weights", "", "node popularity file, one weight per line (histogram only; node count comes from the file)")
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("out", "", "output file (default stdout)")
	if code, ok := parse(fs, args); !ok {
		return code, nil
	}

	// Only the flags the kind reads go into the def, so the spec's
	// strict checks see exactly what the kind will use.
	d := spec.TraceDef{Kind: *kind, N: *n, M: *m, Seed: *seed}
	switch *kind {
	case "temporal":
		d.P = *p
	case "zipf", "exponential", "latest":
		d.S = *s
	case "hotspot":
		d.Hot, d.HotOpn = *hot, *hotOpn
	case "sequential":
		d.Seed = 0
	case "histogram":
		d.N, d.Path = 0, *weights
	}
	g, err := d.Resolve()
	if err != nil {
		return 2, err
	}

	if *out == "" {
		if err := workload.WriteCSVFrom(stdout, g); err != nil {
			return 1, err
		}
		return 0, nil
	}
	f, err := os.Create(*out)
	if err != nil {
		return 1, err
	}
	if err := workload.WriteCSVFrom(f, g); err != nil {
		f.Close()
		return 1, err
	}
	if err := f.Close(); err != nil {
		return 1, err
	}
	return 0, nil
}

func stats(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "input trace file (default stdin)")
	if code, ok := parse(fs, args); !ok {
		return code, nil
	}
	// A file input streams (two passes over the file, no materialized
	// trace); stdin cannot be re-read, so it falls back to materializing.
	var g workload.Generator
	if *in != "" {
		cg, err := workload.OpenCSV(*in)
		if err != nil {
			return 1, err
		}
		g = cg
	} else {
		tr, err := workload.ReadCSV(os.Stdin)
		if err != nil {
			return 1, err
		}
		g = tr
	}
	st, err := workload.MeasureStream(g)
	if err != nil {
		return 1, err
	}
	bound, err := workload.EntropyBoundStream(g)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "trace          %s\n", g.Label())
	fmt.Fprintf(stdout, "nodes          %d\n", g.Nodes())
	fmt.Fprintf(stdout, "requests       %d\n", st.Requests)
	fmt.Fprintf(stdout, "distinct pairs %d\n", st.DistinctPairs)
	fmt.Fprintf(stdout, "repeat frac    %.4f\n", st.RepeatFraction)
	fmt.Fprintf(stdout, "src entropy    %.3f bits\n", st.SrcEntropy)
	fmt.Fprintf(stdout, "dst entropy    %.3f bits\n", st.DstEntropy)
	fmt.Fprintf(stdout, "pair entropy   %.3f bits\n", st.PairEntropy)
	fmt.Fprintf(stdout, "top-8 share    %.4f\n", st.Top8PairShare)
	fmt.Fprintf(stdout, "Thm13 bound    %.0f\n", bound)
	return 0, nil
}
