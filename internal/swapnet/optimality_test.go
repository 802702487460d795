package swapnet

import (
	"testing"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/solver"
)

// TestLinearPatternNearOptimal compares the linear pattern (in the solver's
// cost model: separate gate and SWAP layers) against the depth-optimal A*
// solver on small line cliques. The generalised pattern is within one SWAP
// layer of optimal — the pattern the paper derived from the same solver.
func TestLinearPatternNearOptimal(t *testing.T) {
	for _, n := range []int{3, 4, 5, 6} {
		a := arch.Line(n)
		p := graph.Complete(n)
		opt, err := solver.Solve(a, p, nil, solver.Options{})
		if err != nil {
			t.Fatalf("line-%d: %v", n, err)
		}
		st := NewState(a, n, nil, p)
		cycles := 0
		linear(st, [][]int{a.Path}, linearOpts{unfused: true}, func(s Step) { cycles += s.Depth() })
		if !st.Want.Empty() {
			t.Fatalf("line-%d: pattern incomplete", n)
		}
		if cycles > opt.Depth+1 {
			t.Errorf("line-%d: pattern depth %d vs optimal %d", n, cycles, opt.Depth)
		}
		if cycles < opt.Depth {
			t.Errorf("line-%d: pattern depth %d below proven optimum %d (model bug)", n, cycles, opt.Depth)
		}
	}
}

// TestFusedPatternBeatsUnfused verifies that the unified gate+SWAP variant
// strictly reduces both cycle count and CX count.
func TestFusedPatternBeatsUnfused(t *testing.T) {
	a := arch.Line(6)
	p := graph.Complete(6)

	run := func(unfused bool) Counter {
		st := NewState(a, 6, nil, p)
		var c Counter
		linear(st, [][]int{a.Path}, linearOpts{unfused: unfused}, c.Emit)
		if !st.Want.Empty() {
			t.Fatal("pattern incomplete")
		}
		return c
	}
	fused, unfused := run(false), run(true)
	if fused.Cycles >= unfused.Cycles {
		t.Fatalf("fused cycles %d not below unfused %d", fused.Cycles, unfused.Cycles)
	}
	if fused.CX >= unfused.CX {
		t.Fatalf("fused CX %d not below unfused %d", fused.CX, unfused.CX)
	}
}

// TestGridPatternMatchesSolverOnBipartite2x2 checks the grid bipartite
// pattern achieves the solver's proven optimum on the smallest instance.
func TestGridPatternMatchesSolverOnBipartite2x2(t *testing.T) {
	a := arch.Grid(2, 2)
	p := graph.New(4)
	for i := 0; i < 2; i++ {
		for j := 2; j < 4; j++ {
			p.AddEdge(i, j)
		}
	}
	opt, err := solver.Solve(a, p, nil, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(a, 4, nil, p)
	sc := newScope(st, []int{0, 1, 2, 3})
	cycles := 0
	bipartiteGrid(st, a.Units, [][2]int{{0, 1}}, sc, func(s Step) { cycles += s.Depth() })
	if !st.Want.Empty() {
		t.Fatal("bipartite pattern incomplete")
	}
	if cycles != opt.Depth {
		t.Fatalf("pattern %d cycles vs optimal %d", cycles, opt.Depth)
	}
}

// TestGridMergeOptimization verifies Appendix A Optimisation II: the grid
// ATA covers cliques with no residual intra pass and cycle depth near
// 1.5n (the paper's 25% saving over the separate-phase variant).
func TestGridMergeOptimization(t *testing.T) {
	for _, side := range []int{4, 6, 8} {
		a := arch.Grid(side, side)
		n := a.N()
		st := NewState(a, n, nil, graph.Complete(n))
		var c Counter
		if err := ATA(st, arch.FullRegion(a), c.Emit, NewPatternCache(0)); err != nil {
			t.Fatal(err)
		}
		if !st.Want.Empty() {
			t.Fatalf("side %d: incomplete", side)
		}
		ratio := float64(c.Cycles) / float64(n)
		if ratio > 2.4 {
			t.Errorf("side %d: depth/n = %.2f, want <= 2.4 with merging", side, ratio)
		}
	}
}
