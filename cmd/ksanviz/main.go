// Command ksanviz builds a topology and emits it as ASCII or Graphviz dot,
// for inspecting the structures of the paper's figures at any size.
//
// Usage:
//
//	ksanviz -topo balanced|path|random|centroid|uniform-opt|centroid-net -n 25 -k 3 [-format ascii|dot]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/ksan-net/ksan/internal/centroidnet"
	"github.com/ksan-net/ksan/internal/core"
	"github.com/ksan-net/ksan/internal/statictree"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ksanviz:", err)
	}
	os.Exit(code)
}

// run executes one ksanviz invocation with the given command-line
// arguments and returns the process exit code: 0 on success, 1 when the
// topology cannot be built, 2 on a usage error. Flags are checked before
// anything is built, so a bad -format never waits for a costly topology.
func run(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("ksanviz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	topo := fs.String("topo", "balanced", "balanced, path, random, centroid, uniform-opt or centroid-net")
	n := fs.Int("n", 25, "number of network nodes")
	k := fs.Int("k", 3, "arity bound")
	seed := fs.Int64("seed", 1, "seed (random topology only)")
	format := fs.String("format", "ascii", "ascii or dot")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, nil
		}
		return 2, nil // the flag set has already printed the error and the usage
	}
	var render func(*core.Tree) string
	switch *format {
	case "ascii":
		render = (*core.Tree).Render
	case "dot":
		render = (*core.Tree).DOT
	default:
		return 2, fmt.Errorf("unknown format %q (want ascii or dot)", *format)
	}

	var (
		t   *core.Tree
		err error
	)
	switch *topo {
	case "balanced":
		t, err = core.NewBalanced(*n, *k)
	case "path":
		t, err = core.NewPath(*n, *k)
	case "random":
		t, err = core.NewRandom(*n, *k, *seed)
	case "centroid":
		t, err = statictree.Centroid(*n, *k)
	case "uniform-opt":
		t, _, err = statictree.OptimalUniform(*n, *k)
	case "centroid-net":
		var net *centroidnet.Net
		net, err = centroidnet.New(*n, *k)
		if err == nil {
			t = net.Tree()
		}
	default:
		return 2, fmt.Errorf("unknown topology %q", *topo)
	}
	if err != nil {
		return 1, err
	}
	if _, err := io.WriteString(stdout, render(t)); err != nil {
		return 1, err
	}
	return 0, nil
}
