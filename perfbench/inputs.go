package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	ataqc "github.com/ata-pattern/ataqc"
	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/serve"
)

// spec fixes one problem's shape; the seed only draws its edges. Keeping
// the shapes fixed keeps seed-to-seed spread of the totals small, so a
// changed total means a changed compiler, not a lucky seed.
type spec struct {
	arch    string // daemon family name
	n       int
	density float64
	regular bool // random regular instead of Erdős–Rényi
}

// problem is one distinct input graph of a workload.
type problem struct {
	spec
	g *graph.Graph
}

// form is one request's content: an original problem or a relabelled,
// isomorphic variant of it.
type form struct {
	problem int
	g       *graph.Graph
	body    []byte // marshalled POST /compile body (serve workloads)
}

// inputs is everything a workload sends, generated from the seed alone.
type inputs struct {
	problems []problem
	forms    []form
	// warmup holds one request body per distinct serve device (serve-cold)
	// or the prefill bodies (serve-repeat).
	warmup [][]byte
	// order is the timed request list of one round, as form indexes.
	order []int
}

var (
	families  = []string{"grid", "heavy-hex", "sycamore", "hexagon", "line"}
	densities = []float64{0.1, 0.2, 0.3, 0.4, 0.5}
)

func denseSpecs(tiny bool) []spec {
	if tiny {
		return []spec{
			{"grid", 16, 0.5, false}, {"heavy-hex", 20, 0.3, false},
			{"sycamore", 16, 0.4, false}, {"grid", 16, 0.3, true},
		}
	}
	shapes := []spec{
		{"grid", 100, 0.5, false}, // the ROADMAP target instance
		{"heavy-hex", 64, 0.3, false}, {"heavy-hex", 72, 0.4, false}, {"heavy-hex", 80, 0.5, false},
		{"sycamore", 64, 0.4, false}, {"sycamore", 72, 0.3, false}, {"sycamore", 80, 0.5, false},
		{"grid", 64, 0.3, true},
	}
	// Three draws of each shape: percentiles and totals over 24 graphs
	// move far less from seed to seed than over 8.
	var out []spec
	for i := 0; i < denseDraws; i++ {
		out = append(out, shapes...)
	}
	return out
}

// coldSpecs covers every family at every size and density.
func coldSpecs(tiny bool) []spec {
	sizes, dens := []int{16, 25, 36, 49}, densities
	if tiny {
		sizes, dens = []int{10}, []float64{0.3}
	}
	var out []spec
	for _, n := range sizes {
		for _, fam := range families {
			for _, d := range dens {
				out = append(out, spec{fam, n, d, false})
			}
		}
	}
	return out
}

// repeatSpecs is the serve-repeat working set: 24 problems over 15
// (family, size) devices, the second visit of a device at another density.
// At 25-49 qubits a hit costs the daemon a few ms of decoding, hashing,
// re-verification and encoding; at 16 qubits per-request system overhead
// dominated and the latency followed host noise two-fold.
func repeatSpecs(tiny bool) []spec {
	sizes, count := []int{25, 36, 49}, 24
	if tiny {
		sizes, count = []int{10}, 6
	}
	pairs := len(families) * len(sizes)
	out := make([]spec, count)
	for i := range out {
		p := i % pairs
		out[i] = spec{families[p%len(families)], sizes[p/len(families)], densities[(2*i+i/pairs)%len(densities)], false}
	}
	return out
}

const (
	denseDraws         = 3
	variantsPerProblem = 3
	// repeatRoundLen is the timed requests of a serve-repeat round, about a
	// second of them on the reference host, so the fresh daemon's first
	// requests weigh little against its steady state.
	repeatRoundLen = 1200
)

func makeInputs(workload string, seed int64, tiny bool) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	var specs []spec
	switch workload {
	case "compile-dense":
		specs = denseSpecs(tiny)
	case "serve-cold":
		specs = coldSpecs(tiny)
	case "serve-repeat":
		specs = repeatSpecs(tiny)
	default:
		return nil, fmt.Errorf("unknown workload %q (want compile-dense, serve-cold or serve-repeat)", workload)
	}
	seen := map[[32]byte]bool{}
	for _, s := range specs {
		p, err := drawProblem(s, rng, seen)
		if err != nil {
			return nil, err
		}
		in.problems = append(in.problems, p)
		in.forms = append(in.forms, form{problem: len(in.problems) - 1, g: p.g})
	}
	switch workload {
	case "serve-cold":
		// One warm-up per device loads its pattern geometry before timing.
		devs := map[string]bool{}
		for _, p := range in.problems {
			key := fmt.Sprintf("%s/%d", p.arch, p.n)
			if devs[key] {
				continue
			}
			devs[key] = true
			g, err := warmupGraph(p.n, seen)
			if err != nil {
				return nil, fmt.Errorf("warm-up on %s: %w", key, err)
			}
			in.warmup = append(in.warmup, requestBody(p.arch, p.n, g))
		}
		in.order = rng.Perm(len(in.forms))
	case "serve-repeat":
		for i := range in.problems {
			in.warmup = append(in.warmup, requestBody(in.problems[i].arch, in.problems[i].n, in.problems[i].g))
		}
		for i := range in.problems {
			for v := 0; v < variantsPerProblem; v++ {
				perm := rng.Perm(in.problems[i].n)
				in.forms = append(in.forms, form{problem: i, g: graph.Relabel(in.problems[i].g, perm)})
			}
		}
		in.order = repeatOrder(rng, len(in.problems), len(in.forms), tiny)
	default:
		in.order = make([]int, len(in.forms))
		for i := range in.order {
			in.order[i] = i
		}
	}
	if workload != "compile-dense" {
		for i := range in.forms {
			p := in.problems[in.forms[i].problem]
			in.forms[i].body = requestBody(p.arch, p.n, in.forms[i].g)
		}
	}
	return in, nil
}

// drawProblem draws a connected graph of the spec's shape whose canonical
// hash differs from every earlier one, so no two requests of a workload
// are isomorphic unless the workload makes them so on purpose.
func drawProblem(s spec, rng *rand.Rand, seen map[[32]byte]bool) (problem, error) {
	for attempt := 0; attempt < 16; attempt++ {
		var g *graph.Graph
		if s.regular {
			var err error
			if g, err = graph.RegularByDensity(s.n, s.density, rng); err != nil {
				continue
			}
		} else {
			g = graph.GnpConnected(s.n, s.density, rng)
		}
		h := graph.CanonicalHash(g)
		if seen[h] {
			continue
		}
		seen[h] = true
		return problem{spec: s, g: g}, nil
	}
	return problem{}, fmt.Errorf("no distinct %s-%d graph at density %.1f after 16 draws", s.arch, s.n, s.density)
}

// warmupGraph is a cycle, with chords added until it is isomorphic to no
// problem drawn so far, so a warm-up never fills a timed request's cache
// entry.
func warmupGraph(n int, seen map[[32]byte]bool) (*graph.Graph, error) {
	g := graph.Cycle(n)
	for k := 2; k < n; k++ {
		h := graph.CanonicalHash(g)
		if !seen[h] {
			seen[h] = true
			return g, nil
		}
		g.AddEdge(0, k)
	}
	return nil, fmt.Errorf("every cycle-with-chords on %d vertices is taken", n)
}

// repeatOrder is one serve-repeat round: every form once, then skewed
// popularity over the originals, problem i drawing a share proportional to
// 1/sqrt(i+1) of the remaining requests (about 12% for the first, 2.5% for
// the last). The profile is fixed so the mix of sizes, and with it the
// latency percentiles, does not move with the seed; the seed picks which
// forms carry each problem's requests and the order. The skew is milder
// than 1/k so that no single draw carries most of the requests.
func repeatOrder(rng *rand.Rand, problems, forms int, tiny bool) []int {
	n := repeatRoundLen
	if tiny {
		n = 2 * forms
	}
	order := rng.Perm(forms)
	total := 0.0
	for k := 1; k <= problems; k++ {
		total += 1 / math.Sqrt(float64(k))
	}
	extra := n - forms
	for i := 0; i < problems; i++ {
		k := int(math.Round(float64(extra) / total / math.Sqrt(float64(i+1))))
		for j := 0; j < k; j++ {
			// Form layout: originals first, then variantsPerProblem per original.
			if v := rng.Intn(variantsPerProblem + 1); v == 0 {
				order = append(order, i)
			} else {
				order = append(order, problems+i*variantsPerProblem+v-1)
			}
		}
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

func requestBody(family string, n int, g *graph.Graph) []byte {
	req := serve.CompileRequest{Arch: family, N: n, IncludeQASM: true}
	for _, e := range g.Edges() {
		req.Edges = append(req.Edges, [2]int{e.U, e.V})
	}
	b, err := json.Marshal(req)
	if err != nil {
		return nil // a struct of ints and strings always marshals
	}
	return b
}

// archFor builds the coupling graph the daemon builds for a request, so
// the outside check verifies against the same device.
func archFor(family string, n int) (*arch.Arch, error) {
	switch family {
	case "grid":
		return arch.GridN(n), nil
	case "heavy-hex":
		return arch.HeavyHexN(n), nil
	case "sycamore":
		return arch.SycamoreN(n), nil
	case "hexagon":
		return arch.HexagonN(n), nil
	case "line":
		return arch.Line(n), nil
	}
	return nil, fmt.Errorf("unknown family %q", family)
}

func deviceFor(family string, n int) (*ataqc.Device, error) {
	switch family {
	case "grid":
		return ataqc.GridDevice(n), nil
	case "heavy-hex":
		return ataqc.HeavyHexDevice(n), nil
	case "sycamore":
		return ataqc.SycamoreDevice(n), nil
	case "hexagon":
		return ataqc.HexagonDevice(n), nil
	case "line":
		return ataqc.LineDevice(n), nil
	}
	return nil, fmt.Errorf("unknown family %q", family)
}

// publicProblem converts a graph to the public API's problem type.
func publicProblem(g *graph.Graph) *ataqc.Problem {
	p := ataqc.NewProblem(g.N())
	for _, e := range g.Edges() {
		p.AddInteraction(e.U, e.V)
	}
	return p
}
