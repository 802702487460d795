// Command ataqc-warm precomputes warm-start state for a persistent
// compilation cache (see -cache-dir on ataqcd): it sweeps the registered
// architecture families at common sizes and writes, for every unit of
// each instance, the structured-pattern geometry records the hybrid
// compiler's prediction loop would otherwise derive on first use, plus
// depth-optimal solver records for the small complete sub-problems the
// structured patterns are benchmarked against. Optionally it precompiles
// a bench workload's entire problem mix into the result cache, so a
// daemon pointed at the same directory answers those requests from disk
// on its very first request.
//
// The daemon picks the records up automatically: the first compile per
// architecture pulls that architecture's persisted pattern records into
// the in-process pattern cache, and result records are served through
// the normal two-tier lookup.
//
// Example:
//
//	ataqc-warm -cache-dir /var/cache/ataqc -sizes 16,25,36,64
//	ataqc-warm -cache-dir /var/cache/ataqc -workload examples/workloads/repeat-heavy.yaml
//	ataqcd -cache-dir /var/cache/ataqc
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/cachestore"
	"github.com/ata-pattern/ataqc/internal/core"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/loadgen"
	"github.com/ata-pattern/ataqc/internal/solver"
	"github.com/ata-pattern/ataqc/internal/swapnet"
)

// families maps -archs names to sized constructors. Mumbai is a fixed
// 27-qubit device; its constructor ignores the size argument.
var families = []struct {
	name  string
	sized bool
	build func(n int) *arch.Arch
}{
	{"line", true, arch.Line},
	{"grid", true, arch.GridN},
	{"sycamore", true, arch.SycamoreN},
	{"heavy-hex", true, arch.HeavyHexN},
	{"hexagon", true, arch.HexagonN},
	{"mumbai", false, func(int) *arch.Arch { return arch.Mumbai() }},
}

func main() {
	var (
		dir        = flag.String("cache-dir", "", "persistent compilation-cache directory to warm (required)")
		maxBytes   = flag.Int64("cache-max-bytes", 0, "disk cache byte budget (0 = unbounded)")
		archList   = flag.String("archs", "line,grid,sycamore,heavy-hex,hexagon,mumbai", "comma-separated architecture families to sweep")
		sizeList   = flag.String("sizes", "16,25,36,64", "comma-separated device sizes (qubits) per sized family")
		solverMax  = flag.Int("solver-max-qubits", 5, "largest complete problem to solve depth-optimally on the line (0 = skip solver records)")
		solverNode = flag.Int("solver-max-nodes", 0, "A* node budget per solver record (0 = solver default)")
		workload   = flag.String("workload", "", "bench workload spec whose problem mix is precompiled into the result cache")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "ataqc-warm: -cache-dir is required")
		os.Exit(2)
	}
	if err := run(*dir, *maxBytes, *archList, *sizeList, *solverMax, *solverNode, *workload); err != nil {
		fmt.Fprintf(os.Stderr, "ataqc-warm: %v\n", err)
		os.Exit(1)
	}
}

func run(dir string, maxBytes int64, archList, sizeList string, solverMax, solverNodes int, workload string) error {
	sizes, err := parseSizes(sizeList)
	if err != nil {
		return err
	}
	store, err := cachestore.Open(dir, maxBytes)
	if err != nil {
		return err
	}
	cache := core.NewCache(cachestore.NewTiered(store, 0))
	defer cache.Close()

	archs, err := selectArchs(archList, sizes)
	if err != nil {
		return err
	}
	for _, a := range archs {
		n, err := warmPatterns(store, a)
		if err != nil {
			return fmt.Errorf("%s: %w", a.Name, err)
		}
		fmt.Fprintf(os.Stderr, "ataqc-warm: %-16s %2d pattern records\n", a.Name, n)
	}
	if solverMax >= 2 {
		n, err := warmSolver(store, solverMax, solverNodes)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "ataqc-warm: line cliques     %2d solver records\n", n)
	}
	if workload != "" {
		n, err := warmWorkload(cache, workload)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "ataqc-warm: workload         %2d results precompiled\n", n)
	}
	st := store.Stats()
	fmt.Fprintf(os.Stderr, "ataqc-warm: cache now holds %d entries, %d bytes\n", st.Entries, st.Bytes)
	return nil
}

// warmPatterns writes the structural geometry record of every warm
// region of a: the full architecture plus each unit (for unit-decomposed
// families) or each path half (for path-compiled families) — the regions
// the §6.3 range detector most often confines predictions to.
func warmPatterns(store *cachestore.Store, a *arch.Arch) (int, error) {
	pc := swapnet.NewPatternCache(0)
	fp := a.Fingerprint()
	written := 0
	for _, r := range warmRegions(a) {
		rec := pc.ExportRegion(a, r)
		if err := store.Put(cachestore.PatternKey(fp, r), cachestore.EncodePattern(rec)); err != nil {
			return written, err
		}
		written++
	}
	return written, nil
}

func warmRegions(a *arch.Arch) []arch.Region {
	full := arch.FullRegion(a)
	seen := map[arch.Region]bool{full: true}
	regions := []arch.Region{full}
	add := func(r arch.Region) {
		if !seen[r] {
			seen[r] = true
			regions = append(regions, r)
		}
	}
	if full.UsesPath {
		mid := (full.I0 + full.I1) / 2
		add(arch.Region{UsesPath: true, I0: full.I0, I1: mid})
		add(arch.Region{UsesPath: true, I0: mid + 1, I1: full.I1})
	} else {
		for u := full.U0; u <= full.U1; u++ {
			add(arch.Region{U0: u, U1: u, P0: full.P0, P1: full.P1})
		}
	}
	return regions
}

// warmSolver proves the depth optimum of the complete problem K_n on the
// n-qubit line for n = 2..maxQubits and records each, keyed by the
// problem's canonical hash. A budget-exhausted search is skipped, not
// fatal: the record is an optimization, not an obligation.
func warmSolver(store *cachestore.Store, maxQubits, maxNodes int) (int, error) {
	written := 0
	for n := 2; n <= maxQubits; n++ {
		a := arch.Line(n)
		g := graph.New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				g.AddEdge(u, v)
			}
		}
		res, err := solver.SolveContext(context.Background(), a, g, nil, solver.Options{MaxNodes: maxNodes})
		if errors.Is(err, solver.ErrSearchExhausted) {
			fmt.Fprintf(os.Stderr, "ataqc-warm: K_%d on line-%d: budget exhausted, skipped\n", n, n)
			continue
		}
		if err != nil {
			return written, fmt.Errorf("K_%d on line-%d: %w", n, n, err)
		}
		rec := &cachestore.SolverRecord{Depth: res.Depth, Explored: int64(res.Explored)}
		key := cachestore.SolverKey(a.Fingerprint(), graph.CanonicalHash(g))
		if err := store.Put(key, cachestore.EncodeSolver(rec)); err != nil {
			return written, err
		}
		written++
	}
	return written, nil
}

// warmWorkload compiles every problem of a bench workload spec through
// the cache, so the results are on disk before the daemon sees its first
// request. Default compile options mirror the daemon's default request
// path (one prediction worker, default angle/alpha), which is what makes
// the cache keys line up.
func warmWorkload(cache *core.Cache, path string) (int, error) {
	spec, err := loadgen.LoadWorkload(path)
	if err != nil {
		return 0, err
	}
	compiled := 0
	for _, m := range spec.Mix {
		a, err := buildArch(m.Arch, m.N)
		if err != nil {
			return compiled, fmt.Errorf("mix entry %s/%d: %w", m.Arch, m.N, err)
		}
		prob := graph.GnpConnected(m.N, m.Density, rand.New(rand.NewSource(m.Seed)))
		res, err := core.CompileCached(context.Background(), a, prob, core.Options{Workers: 1}, cache)
		if err != nil {
			return compiled, fmt.Errorf("mix entry %s/%d: %w", m.Arch, m.N, err)
		}
		if res.Stats.CacheTier == "" {
			compiled++
		}
	}
	return compiled, nil
}

func buildArch(name string, n int) (*arch.Arch, error) {
	for _, f := range families {
		if f.name == name || (name == "heavyhex" && f.name == "heavy-hex") {
			return f.build(n), nil
		}
	}
	return nil, fmt.Errorf("unknown architecture family %q", name)
}

func selectArchs(archList string, sizes []int) ([]*arch.Arch, error) {
	var out []*arch.Arch
	seen := map[uint64]bool{}
	for _, name := range strings.Split(archList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		matched := false
		for _, f := range families {
			if f.name != name && !(name == "heavyhex" && f.name == "heavy-hex") {
				continue
			}
			matched = true
			ns := sizes
			if !f.sized {
				ns = []int{0}
			}
			for _, n := range ns {
				a := f.build(n)
				if fp := a.Fingerprint(); !seen[fp] {
					seen[fp] = true
					out = append(out, a)
				}
			}
		}
		if !matched {
			return nil, fmt.Errorf("unknown architecture family %q", name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no architectures selected")
	}
	return out, nil
}

func parseSizes(s string) ([]int, error) {
	var sizes []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		sizes = append(sizes, n)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("no sizes in %q", s)
	}
	return sizes, nil
}
