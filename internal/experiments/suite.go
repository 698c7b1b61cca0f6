package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"github.com/ksan-net/ksan/internal/engine"
	"github.com/ksan-net/ksan/internal/report"
)

// Options configures a suite run.
type Options struct {
	// Workers bounds the engine's worker pool (0 = GOMAXPROCS).
	Workers int
	// Progress, when set, receives one human-readable line per completed
	// suite section (and is safe to point at os.Stderr via a closure).
	Progress func(section string)
}

// NewEngine builds the experiment engine for these options.
func (o Options) NewEngine(extra ...engine.Option) *engine.Engine {
	opts := []engine.Option{engine.WithWorkers(o.Workers)}
	return engine.New(append(opts, extra...)...)
}

func (o Options) Report(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(fmt.Sprintf(format, args...))
	}
}

// suite is one run's shared inputs: where tables go, the engine and the
// scale's workloads, and which section names were asked for.
type suite struct {
	w     io.Writer
	sc    Scale
	opt   Options
	eng   *engine.Engine
	loads Workloads
	want  func(name string) bool
}

// section is a named part of the suite. A section with several names
// (Tables 1–7) computes once when any of them is wanted and prints only
// the wanted ones.
type section struct {
	names []string
	run   func(ctx context.Context, s *suite) error
}

// sections is the suite in paper order: RunSuite runs all of it,
// RunSections the named subset.
var sections = []section{
	{[]string{"1", "2", "3", "4", "5", "6", "7"}, func(ctx context.Context, s *suite) error {
		tables, err := Tables1Through7Ctx(ctx, s.eng, s.loads, s.sc)
		if err != nil {
			return err
		}
		for i, res := range tables {
			if s.want(fmt.Sprint(i + 1)) {
				fmt.Fprintln(s.w, res.Table.Render())
			}
		}
		s.opt.Report("tables 1-7 done")
		return nil
	}},
	{[]string{"8"}, func(ctx context.Context, s *suite) error {
		_, t8, err := Table8Ctx(ctx, s.eng, s.loads, s.sc)
		if err != nil {
			return err
		}
		fmt.Fprintln(s.w, t8.Render())
		s.opt.Report("table 8 done")
		return nil
	}},
	{[]string{"remark10"}, func(ctx context.Context, s *suite) error {
		remark, all, err := CentroidOptimalityCtx(ctx, s.opt.Workers, []int{10, 30, 60, 100, 250, 500, 999}, suiteKs)
		if err != nil {
			return err
		}
		fmt.Fprintln(s.w, remark.Render())
		fmt.Fprintf(s.w, "centroid tree optimal on every tested (n,k): %v\n\n", all)
		s.opt.Report("remark 10 done")
		return nil
	}},
	{[]string{"lemma9"}, func(ctx context.Context, s *suite) error {
		lemma9, err := Lemma9ScalingCtx(ctx, s.opt.Workers, []int{256, 512, 1024, 2048, 4096}, suiteKs)
		if err != nil {
			return err
		}
		fmt.Fprintln(s.w, lemma9.Render())
		s.opt.Report("lemma 9 done")
		return nil
	}},
	{[]string{"entropy"}, func(ctx context.Context, s *suite) error {
		entropy, err := EntropyBoundCheckCtx(ctx, s.eng, s.loads, 3)
		if err != nil {
			return err
		}
		fmt.Fprintln(s.w, entropy.Render())
		s.opt.Report("entropy bound done")
		return nil
	}},
	{[]string{"ablations"}, func(ctx context.Context, s *suite) error {
		tr := s.loads.Temporals[0.5]
		ks := []int{2, 4, 8}
		for _, ablation := range []func() (report.Table, error){
			func() (report.Table, error) { return AblationCostAccountingCtx(ctx, s.eng, tr, ks) },
			func() (report.Table, error) { return AblationSemiSplayOnlyCtx(ctx, s.eng, tr, ks) },
			func() (report.Table, error) { return AblationBlockPolicyCtx(ctx, s.eng, tr, ks) },
			func() (report.Table, error) { return AblationInitialTopologyCtx(ctx, s.eng, tr, 4) },
			func() (report.Table, error) { return AblationPolicyGridCtx(ctx, s.eng, tr, 4) },
			func() (report.Table, error) { return AblationReconvergenceCtx(ctx, s.opt.Workers, s.sc) },
		} {
			t, err := ablation()
			if err != nil {
				return err
			}
			fmt.Fprintln(s.w, t.Render())
		}
		s.opt.Report("ablations done")
		return nil
	}},
	{[]string{"lazy"}, func(ctx context.Context, s *suite) error {
		tr := s.loads.Temporals[0.5]
		m := int64(tr.Len())
		lazy, err := LazyVsReactiveCtx(ctx, s.eng, tr, 4, []int64{m / 2, 2 * m, 8 * m})
		if err != nil {
			return err
		}
		fmt.Fprintln(s.w, lazy.Render())
		s.opt.Report("lazy vs reactive done")
		return nil
	}},
}

// suiteKs are the arities of the Remark 10 and Lemma 9 grids.
var suiteKs = []int{2, 3, 5, 10}

// ErrUnknownSection is wrapped by RunSections' error for a section name
// the suite does not have.
var ErrUnknownSection = errors.New("unknown section")

// SectionNames lists the suite's section names in paper order.
func SectionNames() []string {
	var names []string
	for _, sec := range sections {
		names = append(names, sec.names...)
	}
	return names
}

// RunSuite regenerates every experiment at the given scale and streams the
// tables to w in paper order, honoring cancellation between and inside
// sections. It is the engine behind cmd/ksanbench.
func RunSuite(ctx context.Context, w io.Writer, sc Scale, opt Options) error {
	fmt.Fprintf(w, "== ksan experiment suite, scale %q (m=%d requests per trace) ==\n\n", sc.Name, sc.Requests)
	return run(ctx, w, sc, opt, func(string) bool { return true })
}

// RunSections is RunSuite restricted to the named sections (see
// SectionNames), which run in paper order whatever order they are named
// in. A name the suite does not have is an error wrapping
// ErrUnknownSection, returned before anything runs.
func RunSections(ctx context.Context, w io.Writer, sc Scale, opt Options, names []string) error {
	valid := SectionNames()
	want := map[string]bool{}
	for _, name := range names {
		if !slices.Contains(valid, name) {
			return fmt.Errorf("%w %q (valid: %s)", ErrUnknownSection, name, strings.Join(valid, ", "))
		}
		want[name] = true
	}
	return run(ctx, w, sc, opt, func(name string) bool { return want[name] })
}

// run executes the sections that have a wanted name.
func run(ctx context.Context, w io.Writer, sc Scale, opt Options, want func(string) bool) error {
	s := &suite{w: w, sc: sc, opt: opt, eng: opt.NewEngine(), want: want}
	s.loads = MakeWorkloads(sc)
	opt.Report("workloads generated (scale %s)", sc.Name)
	for _, sec := range sections {
		if !slices.ContainsFunc(sec.names, want) {
			continue
		}
		if err := sec.run(ctx, s); err != nil {
			return err
		}
	}
	return ctx.Err()
}
