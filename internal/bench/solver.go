package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/solver"
)

// Solver engine labels recorded in BENCH_solver.json entries.
const (
	SolverEngineReference = "reference"  // pre-optimization engine (string keys, naive heuristic, unpruned)
	SolverEnginePacked    = "packed"     // packed-state engine, symmetry reduction off
	SolverEnginePackedSym = "packed-sym" // packed-state engine with line/grid automorphism canonicalization
)

// SolverBenchEntry is one (instance, engine) measurement of the depth-
// optimal A* solver benchmark. Depth exists so the regression harness can
// assert engine parity — every engine must prove the same optimum; the
// remaining columns measure search effort and throughput.
type SolverBenchEntry struct {
	Instance    string  `json:"instance"` // e.g. "line-6/clique"
	Arch        string  `json:"arch"`
	Qubits      int     `json:"qubits"`
	Gates       int     `json:"gates"`
	Engine      string  `json:"engine"`
	Depth       int     `json:"depth"`
	Explored    int     `json:"explored"`    // nodes expanded
	PeakOpen    int     `json:"peak_open"`   // open-heap high-water mark
	PeakClosed  int     `json:"peak_closed"` // distinct states stored (closed set is deduplicated)
	Seconds     float64 `json:"seconds"`     // best-of-Repeats wall clock
	NodesPerSec float64 `json:"nodes_per_sec"`
	// Speedup is the reference engine's Seconds on the same instance
	// divided by this entry's (1.0 for the reference row itself; 0 when the
	// reference was too slow to run on this instance).
	Speedup float64 `json:"speedup"`
	// NodeRatio is the reference engine's explored count divided by this
	// entry's — how much of the speedup is pruning rather than per-node
	// throughput (0 when the reference was not run).
	NodeRatio float64 `json:"node_ratio"`
}

// SolverBench is the document serialised to BENCH_solver.json; see
// EXPERIMENTS.md for the schema contract.
type SolverBench struct {
	Entries []SolverBenchEntry `json:"entries"`
}

// SolverBenchConfig sizes the sweep.
type SolverBenchConfig struct {
	// Quick restricts the sweep to the instances whose reference-engine
	// runs finish in CI time (line cliques up to 1x6, bipartite 2x3).
	Quick bool
	// Heavy also runs the minutes-scale instances (line 1x8). Off by
	// default so a plain `go test ./...` stays fast; the regression test
	// turns it on when regenerating the checked-in BENCH_solver.json.
	Heavy bool
	// Repeats is the wall-clock samples per cell, best kept (default 3).
	Repeats int
	// MaxNodes bounds each search (solver semantics: 0 = 2^22 default).
	MaxNodes int
}

// solverInstance is one benchmark workload: a §3 family sub-problem.
type solverInstance struct {
	name      string
	a         *arch.Arch
	p         *graph.Graph
	wantDepth int  // known optimum (line cliques: 2n-2); 0 = not asserted
	reference bool // the reference engine is tractable on this instance
	heavy     bool // minutes-scale even on the packed engine: run once, not best-of-Repeats
}

func solverInstances(quick bool) []solverInstance {
	var out []solverInstance
	lineMax := 8
	if quick {
		lineMax = 6
	}
	for n := 4; n <= lineMax; n++ {
		out = append(out, solverInstance{
			name:      fmt.Sprintf("line-%d/clique", n),
			a:         arch.Line(n),
			p:         graph.Complete(n),
			wantDepth: 2*n - 2,
			reference: n <= 6, // 1x7 takes ~30s on the reference, 1x8 far longer
			heavy:     n >= 8, // ~4 minutes on the packed engine
		})
	}
	bip := func(cols int) solverInstance {
		a := arch.Grid(2, cols)
		p := graph.New(2 * cols)
		for i := 0; i < cols; i++ {
			for j := cols; j < 2*cols; j++ {
				p.AddEdge(i, j)
			}
		}
		return solverInstance{name: fmt.Sprintf("grid-2x%d/bipartite", cols), a: a, p: p, reference: true}
	}
	out = append(out, bip(3))
	if !quick {
		out = append(out, bip(4))
	}
	return out
}

// solverEntryFor builds one benchmark record from a finished solve.
func solverEntryFor(instance string, a *arch.Arch, p *graph.Graph, engine string, res *solver.Result) SolverBenchEntry {
	nps := 0.0
	if sec := res.Elapsed.Seconds(); sec > 0 {
		nps = float64(res.Explored) / sec
	}
	return SolverBenchEntry{
		Instance:    instance,
		Arch:        a.Name,
		Qubits:      a.N(),
		Gates:       p.M(),
		Engine:      engine,
		Depth:       res.Depth,
		Explored:    res.Explored,
		PeakOpen:    res.PeakOpen,
		PeakClosed:  res.Generated,
		Seconds:     res.Elapsed.Seconds(),
		NodesPerSec: nps,
	}
}

// RunSolverBench measures the packed engine (with and without symmetry
// reduction) against the pre-optimization reference engine on the §3
// family instances the paper's patterns were derived from. It returns an
// error — not just a slow number — when any engine proves a different
// optimal depth than another on the same instance, or a line clique
// deviates from the known 2n-2 optimum, so both the CI regression test and
// ad-hoc runs fail loudly on an optimality break.
func RunSolverBench(cfg SolverBenchConfig) (*SolverBench, error) {
	if cfg.Repeats <= 0 {
		cfg.Repeats = 3
	}
	ctx := context.Background()
	out := &SolverBench{}
	for _, inst := range solverInstances(cfg.Quick) {
		if inst.heavy && !cfg.Heavy {
			continue
		}
		inst.a.Distances() // outside the timed region
		type engineRun struct {
			label string
			run   func() (*solver.Result, error)
		}
		opts := func(sym bool) solver.Options {
			return solver.Options{MaxNodes: cfg.MaxNodes, Symmetry: sym}
		}
		engines := []engineRun{
			{SolverEnginePacked, func() (*solver.Result, error) {
				return solver.SolveContext(ctx, inst.a, inst.p, nil, opts(false))
			}},
			{SolverEnginePackedSym, func() (*solver.Result, error) {
				return solver.SolveContext(ctx, inst.a, inst.p, nil, opts(true))
			}},
		}
		if inst.reference {
			engines = append([]engineRun{{SolverEngineReference, func() (*solver.Result, error) {
				return solver.ReferenceSolve(ctx, inst.a, inst.p, nil, opts(false))
			}}}, engines...)
		}
		var ref *SolverBenchEntry
		depth := -1
		repeats := cfg.Repeats
		if inst.heavy {
			repeats = 1
		}
		for _, eng := range engines {
			var best *solver.Result
			for rep := 0; rep < repeats; rep++ {
				res, err := eng.run()
				if err != nil {
					return nil, fmt.Errorf("solver bench: %s on %s: %w", eng.label, inst.name, err)
				}
				if best == nil || res.Elapsed < best.Elapsed {
					best = res
				}
			}
			e := solverEntryFor(inst.name, inst.a, inst.p, eng.label, best)
			if depth == -1 {
				depth = e.Depth
			} else if e.Depth != depth {
				return nil, fmt.Errorf(
					"solver regression: %s proved depth %d on %s, earlier engine proved %d",
					eng.label, e.Depth, inst.name, depth)
			}
			if inst.wantDepth != 0 && e.Depth != inst.wantDepth {
				return nil, fmt.Errorf(
					"solver regression: %s proved depth %d on %s, known optimum is %d",
					eng.label, e.Depth, inst.name, inst.wantDepth)
			}
			if eng.label == SolverEngineReference {
				e.Speedup, e.NodeRatio = 1, 1
				out.Entries = append(out.Entries, e)
				ref = &out.Entries[len(out.Entries)-1]
				continue
			}
			if ref != nil {
				if e.Seconds > 0 {
					e.Speedup = ref.Seconds / e.Seconds
				}
				if e.Explored > 0 {
					e.NodeRatio = float64(ref.Explored) / float64(e.Explored)
				}
			}
			out.Entries = append(out.Entries, e)
		}
	}
	return out, nil
}

// WriteJSON serialises the benchmark document (indented, trailing newline)
// — the exact bytes checked in as BENCH_solver.json.
func (s *SolverBench) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
