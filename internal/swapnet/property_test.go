package swapnet

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/circuit"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/verify"
)

// randomMapping places n logical qubits on distinct random physical qubits.
func randomMapping(rng *rand.Rand, nLogical, nPhys int) []int {
	perm := rng.Perm(nPhys)
	return perm[:nLogical]
}

// TestATAPropertyRandomMappings: for random architectures, problem graphs
// and initial mappings, ATA always drains the want set and every emitted
// operation is legal. Gate legality (coupling, tags, coverage, mapping
// bookkeeping) is checked by the shared verify analyzers over the recorded
// circuit; only the per-step parallelism invariant — no qubit touched twice
// in one cycle — is swapnet-specific and stays here.
func TestATAPropertyRandomMappings(t *testing.T) {
	archs := []func() *arch.Arch{
		func() *arch.Arch { return arch.Line(10) },
		func() *arch.Arch { return arch.Grid(4, 4) },
		func() *arch.Arch { return arch.Sycamore(4, 4) },
		func() *arch.Arch { return arch.Hexagon(4, 4) },
		func() *arch.Arch { return arch.HeavyHex(2, 8) },
		func() *arch.Arch { return arch.Lattice3D(3, 3, 3) },
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := archs[rng.Intn(len(archs))]()
		if !HasATA(a) {
			// Every family above currently has a pattern; this guards the
			// matrix against future members that do not, instead of failing
			// with an opaque "no structured pattern" error.
			t.Logf("seed %d: skipping %s: no structured ATA pattern", seed, a.Name)
			return true
		}
		nLogical := 2 + rng.Intn(a.N()-1)
		p := graph.Gnp(nLogical, 0.2+0.6*rng.Float64(), rng)
		initial := randomMapping(rng, nLogical, a.N())
		st := NewState(a, nLogical, initial, p)
		ok := true
		c := circuit.New(a.N())
		emit := func(s Step) {
			used := map[int]bool{}
			for _, g := range s.Compute {
				if used[g.P] || used[g.Q] {
					ok = false
				}
				used[g.P], used[g.Q] = true, true
				if g.Fused {
					c.Gates = append(c.Gates, circuit.Gate{Kind: circuit.GateZZSwap, Q0: g.P, Q1: g.Q, Angle: 1, Tag: g.Tag, Tagged: true})
				} else {
					c.Gates = append(c.Gates, circuit.NewZZ(g.P, g.Q, 1, g.Tag))
				}
			}
			for _, layer := range s.Swaps {
				lu := map[int]bool{}
				for _, e := range layer {
					if lu[e.U] || lu[e.V] {
						ok = false
					}
					lu[e.U], lu[e.V] = true, true
					c.Gates = append(c.Gates, circuit.NewSwap(e.U, e.V))
				}
			}
		}
		if err := ATA(st, arch.FullRegion(a), emit, NewPatternCache(0)); err != nil {
			return false
		}
		// st.L2P is swapnet's own final-mapping claim; perm-soundness refolds
		// the emitted SWAPs and cross-checks it.
		pass := &verify.Pass{Circuit: c, Arch: a, Problem: p, Initial: initial,
			Final: append([]int(nil), st.L2P...)}
		if diags := verify.Run(pass, verify.ArchConformance, verify.PermSoundness, verify.Coverage); len(diags) > 0 {
			t.Logf("seed %d: %v", seed, diags)
			return false
		}
		return ok && st.Want.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestATALinearDepthProperty: clique cycle depth stays within a constant
// factor of n across sizes — the worst-case linear bound of §3.
func TestATALinearDepthProperty(t *testing.T) {
	type mk struct {
		name  string
		build func(side int) *arch.Arch
		slack float64
	}
	families := []mk{
		{"grid", func(s int) *arch.Arch { return arch.Grid(s, s) }, 3.2},
		{"sycamore", func(s int) *arch.Arch { return arch.Sycamore(s, s) }, 3.2},
		{"hexagon", func(s int) *arch.Arch { return arch.Hexagon(s, s) }, 3.6},
	}
	for _, fam := range families {
		var ratios []float64
		for _, side := range []int{4, 6, 8} {
			a := fam.build(side)
			n := a.N()
			st := NewState(a, n, nil, graph.Complete(n))
			var c Counter
			if err := ATA(st, arch.FullRegion(a), c.Emit, NewPatternCache(0)); err != nil {
				t.Fatal(err)
			}
			if !st.Want.Empty() {
				t.Fatalf("%s side %d incomplete", fam.name, side)
			}
			ratios = append(ratios, float64(c.Cycles)/float64(n))
		}
		for i, r := range ratios {
			if r > fam.slack {
				t.Errorf("%s: depth/n ratio %.2f at size %d exceeds %v", fam.name, r, []int{4, 6, 8}[i], fam.slack)
			}
		}
		// Linearity: the ratio must not grow with size (allow 25% wobble).
		if ratios[2] > ratios[0]*1.25+0.4 {
			t.Errorf("%s: ratio grows with size: %v", fam.name, ratios)
		}
	}
}

// TestHeavyHexLinearDepthProperty mirrors the bound for the two-pass path
// solution, which has a larger constant.
func TestHeavyHexLinearDepthProperty(t *testing.T) {
	var ratios []float64
	sizes := [][2]int{{2, 8}, {3, 12}, {4, 16}}
	for _, sz := range sizes {
		a := arch.HeavyHex(sz[0], sz[1])
		n := a.N()
		st := NewState(a, n, nil, graph.Complete(n))
		var c Counter
		if err := ATA(st, arch.FullRegion(a), c.Emit, NewPatternCache(0)); err != nil {
			t.Fatal(err)
		}
		if !st.Want.Empty() {
			t.Fatalf("heavy-hex %v incomplete", sz)
		}
		ratios = append(ratios, float64(c.Cycles)/float64(n))
	}
	for i, r := range ratios {
		if r > 8 {
			t.Errorf("heavy-hex %v: depth/n = %.2f", sizes[i], r)
		}
	}
	if ratios[2] > ratios[0]*1.4+0.5 {
		t.Errorf("heavy-hex ratio grows with size: %v", ratios)
	}
}

// TestATAGateCountNeverExceedsCliqueBudget: pattern gate count equals the
// problem size exactly and swap count is bounded by the clique run's.
func TestATAGateCountProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := arch.Grid(5, 5)
		p := graph.Gnp(25, 0.15+0.7*rng.Float64(), rng)
		st := NewState(a, 25, nil, p)
		var c Counter
		if err := ATA(st, arch.FullRegion(a), c.Emit, NewPatternCache(0)); err != nil {
			return false
		}
		return st.Want.Empty() && c.Gates == p.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestStateCloneIndependence: mutating a clone leaves the original intact.
func TestStateCloneIndependence(t *testing.T) {
	a := arch.Line(6)
	st := NewState(a, 6, nil, graph.Complete(6))
	cl := st.Clone()
	cl.ApplySwap(0, 1)
	cl.Want.Remove(graph.NewEdge(0, 1))
	if st.P2L[0] != 0 || st.Want.Len() != 15 {
		t.Fatal("clone mutation leaked")
	}
}

// TestNewStateFromMappingRejectsBadMappings guards the hybrid entry point.
func TestNewStateFromMappingRejectsBadMappings(t *testing.T) {
	a := arch.Line(4)
	for _, bad := range [][]int{{0, 0}, {0, 9}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("mapping %v accepted", bad)
				}
			}()
			NewStateFromMapping(a, bad, NewEdgeSet(graph.Complete(2)))
		}()
	}
}
