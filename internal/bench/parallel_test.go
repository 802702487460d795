package bench

import (
	"math/rand"
	"os"
	"testing"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/core"
	"github.com/ata-pattern/ataqc/internal/graph"
)

// TestHybridBenchRegression is the CI benchmark-regression gate: it runs
// the hybrid parallel sweep (quick sizes in -short mode) and fails if any
// parallel entry's depth/CX/swap counts diverge from its serial twin —
// RunHybridBench returns that divergence as an error. Set BENCH_HYBRID_OUT
// to also write the JSON document (how the checked-in BENCH_hybrid.json is
// regenerated: BENCH_HYBRID_OUT=BENCH_hybrid.json go test ./internal/bench
// -run TestHybridBenchRegression).
func TestHybridBenchRegression(t *testing.T) {
	cfg := HybridBenchConfig{Quick: testing.Short(), Repeats: 3}
	if testing.Short() {
		cfg.Repeats = 2
	}
	h, err := RunHybridBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Entries) == 0 {
		t.Fatal("no benchmark entries produced")
	}
	for _, e := range h.Entries {
		t.Logf("%s %s/%s workers=%d: %.3fs depth=%d cx=%d speedup=%.2fx",
			e.Method, e.Arch, e.Graph, e.Workers, e.Seconds, e.Depth, e.CX, e.Speedup)
	}
	if out := os.Getenv("BENCH_HYBRID_OUT"); out != "" {
		f, err := os.Create(out)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := h.WriteJSON(f); err != nil {
			t.Fatal(err)
		}
	}
}

// benchCompile is the shared body of the Benchmark* pair below.
func benchCompile(b *testing.B, workers int) {
	a, err := arch.ByFamily("grid", 64)
	if err != nil {
		b.Fatal(err)
	}
	a.Distances()
	p := graph.GnpConnected(64, 0.5, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Compile(a, p, core.Options{Mode: core.ModeHybrid, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHybridGrid64Serial / Parallel8 compare grid-64 / ER-0.5 at
// Workers 1 vs 8. Both run the same cached prediction engine, so the pair
// measures the worker fan-out alone; "Serial" names the one-worker pool.
func BenchmarkHybridGrid64Serial(b *testing.B)    { benchCompile(b, 1) }
func BenchmarkHybridGrid64Parallel8(b *testing.B) { benchCompile(b, 8) }
