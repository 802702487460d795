package bench

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/baseline"
	"github.com/ata-pattern/ataqc/internal/core"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/hamiltonian"
	"github.com/ata-pattern/ataqc/internal/noise"
	"github.com/ata-pattern/ataqc/internal/obs"
	"github.com/ata-pattern/ataqc/internal/qaoa"
	"github.com/ata-pattern/ataqc/internal/sim"
	"github.com/ata-pattern/ataqc/internal/solver"
)

// Config scales the experiment suite. Quick keeps everything laptop-fast;
// the full configuration reproduces the paper's sizes (up to 1024 qubits).
type Config struct {
	Quick  bool
	Trials int // graphs averaged per cell (paper: 10)
	Seed   int64
	// Deadline bounds each governed compile's wall clock (0 = unbounded).
	// Expiry degrades that compile to the structured ATA fallback rather
	// than failing the experiment; Stats.Degraded records it. The baseline
	// reimplementations are not governed.
	Deadline time.Duration
	// Workers is passed to the governed compiles' hybrid prediction loop
	// (0 = runtime.GOMAXPROCS(0)). Output metrics are identical
	// for every worker count; it only changes compile wall-clock.
	Workers int
	// Trace, when non-nil, is attached to every governed compile of the run
	// (obs traces are concurrency-safe; concurrent trials interleave spans).
	// Nil leaves the compiles untraced.
	Trace *obs.Trace
}

// DefaultConfig returns the full-scale configuration.
func DefaultConfig() Config { return Config{Trials: 10, Seed: 1} }

// QuickConfig returns a configuration suitable for CI and benchmarks.
func QuickConfig() Config { return Config{Quick: true, Trials: 3, Seed: 1} }

func (c Config) sizes(full, quick []int) []int {
	if c.Quick {
		return quick
	}
	return full
}

// trialsFor caps the per-cell trials at large sizes, where single
// compilations take a minute: the variance across 1024-qubit G(n,p)
// samples is small relative to the method gaps being measured.
func (c Config) trialsFor(n int) int {
	t := c.Trials
	if n >= 512 && t > 2 {
		t = 2
	}
	return t
}

func f2(v float64) string   { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string   { return fmt.Sprintf("%.3f", v) }
func itoa(v int) string     { return fmt.Sprintf("%d", v) }
func secs(v float64) string { return fmt.Sprintf("%.3fs", v) }

// RunFig17 reproduces Fig 17: pure greedy vs solver-guided (ATA) vs ours,
// normalised to greedy, on heavy-hex and Sycamore with densities 0.1/0.3.
func RunFig17(cfg Config) (*Report, error) {
	r := &Report{
		ID:     "Fig17",
		Title:  "Pure-Greedy vs Solver vs Ours (normalised to greedy)",
		Header: []string{"arch", "graph", "depth greedy", "depth solver", "depth ours", "CX greedy", "CX solver", "CX ours"},
	}
	sizes := cfg.sizes([]int{64, 256, 1024}, []int{16, 36})
	for _, family := range []string{"heavy-hex", "sycamore"} {
		for _, density := range []float64{0.1, 0.3} {
			for _, n := range sizes {
				a, err := arch.ByFamily(family, n)
				if err != nil {
					return nil, err
				}
				w := RandomWorkload(n, density, cfg.trialsFor(n), cfg.Seed)
				var row []string
				row = append(row, a.Name, w.Name)
				var depths, cxs []float64
				var base Stats
				for i, method := range []string{MethodGreedy, MethodSolver, MethodOurs} {
					s, err := averageStats(method, a, w, nil, cfg.Deadline, cfg.Workers, cfg.Trace)
					if err != nil {
						return nil, err
					}
					if i == 0 {
						base = s
					}
					depths = append(depths, float64(s.Depth)/float64(base.Depth))
					cxs = append(cxs, float64(s.CX)/float64(base.CX))
				}
				for _, d := range depths {
					row = append(row, f2(d))
				}
				for _, c := range cxs {
					row = append(row, f2(c))
				}
				r.Rows = append(r.Rows, row)
			}
		}
	}
	r.Notes = append(r.Notes, "Paper shape: greedy wins only on the sparsest/smallest inputs; solver wins on large dense ones; ours is at or below the better of the two everywhere.")
	return r, nil
}

// RunDepthGate reproduces Figs 20–23: ours vs QAIM vs Paulihedral on one
// architecture family, for random and regular graphs, reporting average
// depth and CX count.
func RunDepthGate(cfg Config, family string) (*Report, error) {
	r := &Report{
		ID:     map[string]string{"heavy-hex": "Fig20/21", "sycamore": "Fig22/23"}[family],
		Title:  fmt.Sprintf("Depth and gate count on %s: Ours vs QAIM vs Paulihedral", family),
		Header: []string{"graph", "depth ours", "depth qaim", "depth pauli", "CX ours", "CX qaim", "CX pauli"},
	}
	sizes := cfg.sizes([]int{64, 128, 256}, []int{24, 48})
	for _, kind := range []string{"rand", "reg"} {
		for _, density := range []float64{0.3, 0.5} {
			for _, n := range sizes {
				a, err := arch.ByFamily(family, n)
				if err != nil {
					return nil, err
				}
				var w Workload
				if kind == "rand" {
					w = RandomWorkload(n, density, cfg.trialsFor(n), cfg.Seed)
				} else {
					w = RegularWorkload(n, density, cfg.trialsFor(n), cfg.Seed)
				}
				row := []string{w.Name}
				var dvals, cvals []string
				for _, method := range []string{MethodOurs, MethodQAIM, MethodPaulihedral} {
					s, err := averageStats(method, a, w, nil, cfg.Deadline, cfg.Workers, cfg.Trace)
					if err != nil {
						return nil, err
					}
					dvals = append(dvals, itoa(s.Depth))
					cvals = append(cvals, itoa(s.CX))
				}
				row = append(row, dvals...)
				row = append(row, cvals...)
				r.Rows = append(r.Rows, row)
			}
		}
	}
	return r, nil
}

// RunTable1 reproduces Table 1: ours vs 2QAN vs QAIM on both architecture
// families. 2QAN's quadratic placement is skipped beyond 128 qubits, the
// paper's timeout behaviour.
func RunTable1(cfg Config) (*Report, error) {
	r := &Report{
		ID:     "Table1",
		Title:  "Comparison with 2QAN and QAIM",
		Header: []string{"arch", "graph", "depth ours", "depth 2qan", "depth qaim", "CX ours", "CX 2qan", "CX qaim"},
	}
	sizes := cfg.sizes([]int{64, 128, 256}, []int{24, 48})
	twoQANLimit := 128
	if cfg.Quick {
		twoQANLimit = 48
	}
	for _, family := range []string{"heavy-hex", "sycamore"} {
		for _, density := range []float64{0.3, 0.5} {
			for _, n := range sizes {
				a, err := arch.ByFamily(family, n)
				if err != nil {
					return nil, err
				}
				w := RandomWorkload(n, density, cfg.trialsFor(n), cfg.Seed)
				ours, err := averageStats(MethodOurs, a, w, nil, cfg.Deadline, cfg.Workers, cfg.Trace)
				if err != nil {
					return nil, err
				}
				qaim, err := averageStats(MethodQAIM, a, w, nil, cfg.Deadline, cfg.Workers, cfg.Trace)
				if err != nil {
					return nil, err
				}
				d2, c2 := "-", "-"
				if n <= twoQANLimit {
					tq, err := averageStats(Method2QAN, a, w, nil, cfg.Deadline, cfg.Workers, cfg.Trace)
					if err != nil {
						return nil, err
					}
					d2, c2 = itoa(tq.Depth), itoa(tq.CX)
				}
				r.Rows = append(r.Rows, []string{
					family, w.Name,
					itoa(ours.Depth), d2, itoa(qaim.Depth),
					itoa(ours.CX), c2, itoa(qaim.CX),
				})
			}
		}
	}
	r.Notes = append(r.Notes, "\"-\" mirrors the paper: 2QAN's quadratic placement exceeds its time budget beyond 128 qubits.")
	return r, nil
}

// RunTable2 reproduces Table 2: 1024-qubit graphs, ours vs Paulihedral (the
// only baseline that scales).
func RunTable2(cfg Config) (*Report, error) {
	r := &Report{
		ID:     "Table2",
		Title:  "1024-qubit graphs: Ours vs Paulihedral",
		Header: []string{"arch", "graph", "depth ours", "depth pauli", "CX ours", "CX pauli"},
	}
	n := 1024
	trials := 1 // one 1024-qubit sample per cell; the paper averages 10
	if cfg.Quick {
		n, trials = 96, 1
	}
	deg1 := int(0.3125 * float64(n)) // paper's 1024-320
	deg2 := int(0.46875 * float64(n))
	if deg1%2 == 1 {
		deg1++
	}
	if deg2%2 == 1 {
		deg2++
	}
	workloads := []Workload{
		RandomWorkload(n, 0.3, trials, cfg.Seed),
		RandomWorkload(n, 0.5, trials, cfg.Seed+1),
		regularDegreeWorkload(n, deg1, trials, cfg.Seed+2),
		regularDegreeWorkload(n, deg2, trials, cfg.Seed+3),
	}
	for _, family := range []string{"heavy-hex", "sycamore"} {
		a, err := arch.ByFamily(family, n)
		if err != nil {
			return nil, err
		}
		for _, w := range workloads {
			ours, err := averageStats(MethodOurs, a, w, nil, cfg.Deadline, cfg.Workers, cfg.Trace)
			if err != nil {
				return nil, err
			}
			pauli, err := averageStats(MethodPaulihedral, a, w, nil, cfg.Deadline, cfg.Workers, cfg.Trace)
			if err != nil {
				return nil, err
			}
			r.Rows = append(r.Rows, []string{
				family, w.Name,
				itoa(ours.Depth), itoa(pauli.Depth),
				itoa(ours.CX), itoa(pauli.CX),
			})
		}
	}
	return r, nil
}

func regularDegreeWorkload(n, deg, trials int, seed int64) Workload {
	rng := rand.New(rand.NewSource(seed))
	w := Workload{Name: fmt.Sprintf("%d-%d", n, deg)}
	for i := 0; i < trials; i++ {
		w.Graphs = append(w.Graphs, graph.MustRandomRegular(n, deg, rng))
	}
	return w
}

// RunTable3 reproduces Table 3: the 2-local Hamiltonian benchmarks on a
// 64-qubit heavy-hex, ours vs 2QAN.
func RunTable3(cfg Config) (*Report, error) {
	r := &Report{
		ID:     "Table3",
		Title:  "2-local Hamiltonian at IBM heavy-hex: Ours vs 2QAN",
		Header: []string{"benchmark", "depth ours", "depth 2qan", "CX ours", "CX 2qan"},
	}
	a, err := arch.ByFamily("heavy-hex", 64)
	if err != nil {
		return nil, err
	}
	for _, name := range hamiltonian.Names() {
		p, err := hamiltonian.Benchmark(name)
		if err != nil {
			return nil, err
		}
		ours, err := CompileWithDeadline(MethodOurs, a, p, nil, cfg.Deadline)
		if err != nil {
			return nil, err
		}
		tq, err := CompileWith(Method2QAN, a, p, nil)
		if err != nil {
			return nil, err
		}
		r.Rows = append(r.Rows, []string{name, itoa(ours.Depth), itoa(tq.Depth), itoa(ours.CX), itoa(tq.CX)})
	}
	return r, nil
}

// RunTable4 reproduces Table 4: ours vs the depth-optimal solver (standing
// in for the SAT-based OLSQ/SATMAP tools) on small 2D-grid instances,
// reporting depth, CX and compile time. The solver's 2-qubit-gate-per-cycle
// depth is compared against our circuit's 2q depth.
func RunTable4(cfg Config) (*Report, error) {
	r := &Report{
		ID:     "Table4",
		Title:  "Comparison with the optimal (SAT-style) solver on 2D grids",
		Header: []string{"graph", "2q-depth ours", "depth optimal", "CX ours", "CX optimal*", "time ours", "time optimal"},
	}
	type inst struct {
		n   int
		den float64
	}
	insts := []inst{{6, 0.3}, {6, 0.4}, {8, 0.2}, {8, 0.3}, {10, 0.2}}
	if cfg.Quick {
		insts = []inst{{6, 0.3}, {8, 0.2}}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, in := range insts {
		p := graph.GnpConnected(in.n, in.den, rng)
		a := arch.GridN(in.n)
		t0 := time.Now()
		res, err := core.Compile(a, p, core.Options{Mode: core.ModeHybrid, Deadline: cfg.Deadline, Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		oursTime := time.Since(t0).Seconds()
		t1 := time.Now()
		opt, err := solver.Solve(a, p, nil, solver.Options{MaxNodes: 1 << 21})
		optDepth, optCX, optTime := "-", "-", "-"
		if err == nil {
			optDepth = itoa(opt.Depth)
			swaps := 0
			for _, cyc := range opt.Cycles {
				for _, op := range cyc {
					if !op.Gate {
						swaps++
					}
				}
			}
			optCX = itoa(2*p.M() + 3*swaps)
			optTime = secs(time.Since(t1).Seconds())
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d-%.1f", in.n, in.den),
			itoa(res.Metrics.TwoQubitDepth), optDepth,
			itoa(res.Metrics.CXCount), optCX,
			secs(oursTime), optTime,
		})
	}
	r.Notes = append(r.Notes,
		"Substitution: our A* solver (depth-optimal, §4) stands in for QAOA-OLSQ/SATMAP; \"-\" marks node-budget exhaustion, mirroring the paper's multi-hour/day SAT timeouts.",
		"*Optimal CX assumes 2 CX per program gate + 3 per SWAP of the optimal-depth schedule (the solver optimises depth, not gate count).")
	return r, nil
}

// RunTVD reproduces the §7.4 TVD comparison: ours vs 2QAN compiled circuits
// executed on the simulated Mumbai device under a synthetic calibration.
func RunTVD(cfg Config) (*Report, error) {
	r := &Report{
		ID:     "TVD",
		Title:  "Total variation distance on simulated IBM Mumbai: Ours vs 2QAN",
		Header: []string{"graph", "TVD ours", "TVD 2qan"},
	}
	a := arch.Mumbai()
	nm := noise.Synthetic(a, cfg.Seed)
	sizes := []int{10, 14}
	if cfg.Quick {
		sizes = []int{8}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, n := range sizes {
		p := graph.GnpConnected(n, 0.3, rng)
		row := []string{fmt.Sprintf("rand-%d-0.3", n)}
		for _, method := range []string{MethodOurs, Method2QAN} {
			inst, err := compileInstance(method, a, p, nm, cfg.Deadline)
			if err != nil {
				return nil, err
			}
			gamma, beta := 0.6, 0.35
			ideal := inst.LogicalDistribution(gamma, beta)
			tr := 24
			if cfg.Quick {
				tr = 8
			}
			noisy := inst.NoisyLogicalDistribution(gamma, beta, nm, sim.NoisyOptions{Trajectories: tr}, rng)
			row = append(row, f3(sim.TVD(ideal, noisy)))
		}
		r.Rows = append(r.Rows, row)
	}
	r.Notes = append(r.Notes, "Paper's real-machine points: 10-0.3 TVD 0.39 (ours) vs 0.49 (2QAN); 20-0.3: 0.62 vs 0.66. The simulated 20-qubit case is run at 14 qubits to stay within statevector reach (DESIGN.md substitution).")
	return r, nil
}

func compileInstance(method string, a *arch.Arch, p *graph.Graph, nm *noise.Model, deadline time.Duration) (*qaoa.Instance, error) {
	switch method {
	case MethodOurs:
		res, err := core.Compile(a, p, core.Options{Mode: core.ModeHybrid, Noise: nm, CrosstalkAware: true, Deadline: deadline})
		if err != nil {
			return nil, err
		}
		return &qaoa.Instance{Problem: p, Compiled: res.Circuit, Initial: res.Initial, NPhys: a.N()}, nil
	case Method2QAN:
		res, err := baseline.TwoQAN(a, p, 1)
		if err != nil {
			return nil, err
		}
		return &qaoa.Instance{Problem: p, Compiled: res.Circuit, Initial: res.Initial, NPhys: a.N()}, nil
	}
	return nil, fmt.Errorf("bench: no instance path for method %q", method)
}

// RunConvergence reproduces Fig 24/25: full QAOA runs on simulated Mumbai,
// ours vs the 2QAN baseline, optimised with Nelder–Mead (COBYLA
// substitute); the y-axis is the negated expected cut.
func RunConvergence(cfg Config, n int, rounds int) (*Report, error) {
	id := "Fig24"
	if n > 10 {
		id = "Fig25"
	}
	r := &Report{
		ID:     id,
		Title:  fmt.Sprintf("QAOA convergence on simulated Mumbai, %d-qubit random 0.3 graph", n),
		Header: []string{"round", "ours (-E)", "2qan (-E)"},
	}
	a := arch.Mumbai()
	nm := noise.Synthetic(a, cfg.Seed)
	rng := rand.New(rand.NewSource(cfg.Seed + int64(n)))
	p := graph.GnpConnected(n, 0.3, rng)
	traces := make([][]float64, 2)
	for i, method := range []string{MethodOurs, Method2QAN} {
		inst, err := compileInstance(method, a, p, nm, cfg.Deadline)
		if err != nil {
			return nil, err
		}
		tr := 8
		if cfg.Quick {
			tr = 3
		}
		evalRng := rand.New(rand.NewSource(cfg.Seed + 100 + int64(i)))
		f := func(x []float64) float64 {
			return -inst.NoisyExpectation(x[0], x[1], nm, sim.NoisyOptions{Trajectories: tr}, evalRng)
		}
		_, trace := qaoa.NelderMead(f, []float64{-0.4, 0.3}, rounds)
		traces[i] = trace
	}
	max := len(traces[0])
	if len(traces[1]) > max {
		max = len(traces[1])
	}
	for i := 0; i < max; i++ {
		at := func(tr []float64) string {
			if i < len(tr) {
				return f3(tr[i])
			}
			return f3(tr[len(tr)-1])
		}
		r.Rows = append(r.Rows, []string{itoa(i + 1), at(traces[0]), at(traces[1])})
	}
	r.Notes = append(r.Notes, "Smaller (more negative) is better; the paper's Fig 24/25 show ours converging to lower energy within the same rounds. Fig 25's 20-qubit run is reproduced at reduced qubit count for simulator reach (DESIGN.md).")
	return r, nil
}

// RunCompileTime reproduces Fig 26: compilation time vs problem size for
// random density-0.3 graphs on heavy-hex, with the compiler's own phase
// breakdown (greedy scheduling / checkpoint prediction / ATA
// materialisation) showing where the time goes.
func RunCompileTime(cfg Config) (*Report, error) {
	r := &Report{
		ID:     "Fig26",
		Title:  "Compilation time vs QAOA graph size (random 0.3, heavy-hex)",
		Header: []string{"qubits", "compile time", "greedy", "predict", "materialize"},
	}
	sizes := cfg.sizes([]int{64, 128, 256, 512, 768, 1024}, []int{32, 64, 128})
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, n := range sizes {
		p := graph.GnpConnected(n, 0.3, rng)
		a, err := arch.ByFamily("heavy-hex", n)
		if err != nil {
			return nil, err
		}
		s, err := CompileWithOptions(MethodOurs, a, p, nil, cfg.Deadline, cfg.Workers, cfg.Trace)
		if err != nil {
			return nil, err
		}
		r.Rows = append(r.Rows, []string{itoa(n), secs(s.Seconds),
			secs(s.GreedySec), secs(s.PredictSec), secs(s.MaterializeSec)})
	}
	return r, nil
}
