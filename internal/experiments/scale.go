// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5) plus the appendix observations (Remark 10,
// Lemma 9) and the ablations called out in DESIGN.md. Each experiment
// returns a report.Table whose layout mirrors the paper's, so shapes (who
// wins, by what factor, where crossovers fall) can be compared directly;
// EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"

	"github.com/ksan-net/ksan/internal/workload"
)

// Scale selects the experiment dimensions. The paper's exact sizes are
// preserved where the machine allows; the cubic DP bounds which instance
// sizes get an "Optimal Tree" row (the paper itself left that row empty
// for its 10⁴-node Facebook trace).
type Scale struct {
	Name     string
	Requests int // trace length m (paper: 10⁶)

	UniformNodes  int // paper: 100
	HPCNodes      int // paper: 500
	ProjNodes     int // paper: 100
	FBNodes       int // paper: 10⁴
	TemporalNodes int // paper: 1023

	// Ks are the arities swept in Tables 1–7 (paper: 2..10).
	Ks []int
	// OptMaxN bounds the cubic-DP instances; larger workloads skip the
	// "Optimal Tree" row (Tables 1–7) or fall back to the weight-balanced
	// approximation (Table 8), clearly labelled.
	OptMaxN int
	Seed    int64
}

// Quick is sized for unit tests and benchmarks (seconds).
var Quick = Scale{
	Name:          "quick",
	Requests:      20_000,
	UniformNodes:  64,
	HPCNodes:      128,
	ProjNodes:     64,
	FBNodes:       512,
	TemporalNodes: 127,
	Ks:            []int{2, 3, 5, 10},
	OptMaxN:       128,
	Seed:          1,
}

// Default preserves the paper's node counts except for the Facebook
// trace and the temporal workloads, whose DP rows would otherwise
// dominate the runtime. `ksanbench -scale default` runs in about 8 s on
// a 2-vCPU KVM guest.
var Default = Scale{
	Name:          "default",
	Requests:      200_000,
	UniformNodes:  100,
	HPCNodes:      500,
	ProjNodes:     100,
	FBNodes:       2048,
	TemporalNodes: 255,
	Ks:            []int{2, 3, 4, 5, 6, 7, 8, 9, 10},
	OptMaxN:       512,
	Seed:          1,
}

// Paper uses the paper's dimensions wherever the algorithms allow; the
// 10⁴-node Facebook optimum remains out of reach exactly as in the
// paper (Table 3 prints "-"). `ksanbench -scale paper` runs in about
// 1 min 4 s on a 2-vCPU KVM guest, 42–46 s of it Tables 1–7, mostly the
// cubic DP of the 1023-node temporal tables.
var Paper = Scale{
	Name:          "paper",
	Requests:      1_000_000,
	UniformNodes:  100,
	HPCNodes:      500,
	ProjNodes:     100,
	FBNodes:       10_000,
	TemporalNodes: 1023,
	Ks:            []int{2, 3, 4, 5, 6, 7, 8, 9, 10},
	OptMaxN:       1100,
	Seed:          1,
}

// ScaleByName resolves quick/default/paper.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "quick":
		return Quick, nil
	case "default", "":
		return Default, nil
	case "paper":
		return Paper, nil
	}
	return Scale{}, fmt.Errorf("experiments: unknown scale %q (want quick, default or paper)", name)
}

// Workloads bundles one generated trace per dataset of the evaluation.
type Workloads struct {
	Uniform   workload.Trace
	HPC       workload.Trace
	Proj      workload.Trace
	FB        workload.Trace
	Temporals map[float64]workload.Trace
}

// TemporalPs are the paper's temporal complexity parameters.
var TemporalPs = []float64{0.25, 0.5, 0.75, 0.9}

// MakeWorkloads generates all traces for a scale (deterministic in the
// scale's seed).
func MakeWorkloads(sc Scale) Workloads {
	w := Workloads{
		Uniform:   workload.Uniform(sc.UniformNodes, sc.Requests, sc.Seed),
		HPC:       workload.HPCLike(sc.HPCNodes, sc.Requests, sc.Seed+1),
		Proj:      workload.ProjecToRLike(sc.ProjNodes, sc.Requests, sc.Seed+2),
		FB:        workload.FacebookLike(sc.FBNodes, sc.Requests, sc.Seed+3),
		Temporals: map[float64]workload.Trace{},
	}
	for i, p := range TemporalPs {
		w.Temporals[p] = workload.Temporal(sc.TemporalNodes, sc.Requests, p, sc.Seed+10+int64(i))
	}
	return w
}
