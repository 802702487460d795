// Command experiments regenerates the paper's evaluation tables and
// figures (§7) and writes them as markdown.
//
// Usage:
//
//	experiments -quick                 # laptop-scale versions of everything
//	experiments -exp fig17,table1     # a subset
//	experiments -out results.md        # full-scale run (up to 1024 qubits)
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"github.com/ata-pattern/ataqc/internal/bench"
	"github.com/ata-pattern/ataqc/internal/obs"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "run reduced sizes (fast)")
		exps     = flag.String("exp", "all", "comma-separated experiment ids: fig17,fig20,fig22,table1,table2,table3,table4,tvd,fig24,fig25,fig26,ablations,sema")
		out      = flag.String("out", "", "write markdown to this file instead of stdout")
		trials   = flag.Int("trials", 0, "graphs per cell (default: 10 full / 3 quick)")
		seed     = flag.Int64("seed", 1, "workload seed")
		timeout  = flag.Duration("timeout", 0, "per-compile wall-clock budget, e.g. 2m (0 = unbounded); expired compiles degrade to the linear-depth ATA fallback instead of failing the run")
		workers  = flag.Int("workers", 0, "hybrid prediction workers per compile (0 = GOMAXPROCS); results are identical for every value")
		traceOut = flag.String("trace", "", "record every governed compile's execution trace to this file (concurrent trials interleave spans)")
		traceFmt = flag.String("trace-format", "chrome", "trace format: chrome (load in ui.perfetto.dev), jsonl, or text")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	)
	flag.Parse()

	if !slices.Contains(obs.Formats, *traceFmt) {
		log.Fatalf("unknown -trace-format %q (want one of %v)", *traceFmt, obs.Formats)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	cfg.Seed = *seed
	if *trials > 0 {
		cfg.Trials = *trials
	}
	cfg.Deadline = *timeout
	cfg.Workers = *workers
	if *traceOut != "" {
		cfg.Trace = obs.New()
	}
	if *timeout > 0 {
		fmt.Fprintf(os.Stderr, "per-compile deadline %s: compiles that run out of budget degrade to the structured ATA solution instead of failing the run\n", *timeout)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}

	type runner struct {
		id  string
		run func() (*bench.Report, error)
	}
	convRounds := 30
	if *quick {
		convRounds = 12
	}
	fig25Qubits := 16
	if *quick {
		fig25Qubits = 8
	}
	runners := []runner{
		{"fig17", func() (*bench.Report, error) { return bench.RunFig17(cfg) }},
		{"fig20", func() (*bench.Report, error) { return bench.RunDepthGate(cfg, "heavy-hex") }},
		{"fig22", func() (*bench.Report, error) { return bench.RunDepthGate(cfg, "sycamore") }},
		{"table1", func() (*bench.Report, error) { return bench.RunTable1(cfg) }},
		{"table2", func() (*bench.Report, error) { return bench.RunTable2(cfg) }},
		{"table3", func() (*bench.Report, error) { return bench.RunTable3(cfg) }},
		{"table4", func() (*bench.Report, error) { return bench.RunTable4(cfg) }},
		{"tvd", func() (*bench.Report, error) { return bench.RunTVD(cfg) }},
		{"fig24", func() (*bench.Report, error) { return bench.RunConvergence(cfg, 10, convRounds) }},
		{"fig25", func() (*bench.Report, error) { return bench.RunConvergence(cfg, fig25Qubits, convRounds) }},
		{"fig26", func() (*bench.Report, error) { return bench.RunCompileTime(cfg) }},
		{"ablations", func() (*bench.Report, error) { return bench.RunAblations(cfg) }},
		{"sema", func() (*bench.Report, error) { return bench.RunSemaAudit(cfg) }},
	}

	selected := map[string]bool{}
	for _, id := range strings.Split(*exps, ",") {
		selected[strings.TrimSpace(strings.ToLower(id))] = true
	}
	all := selected["all"]

	fmt.Fprintf(w, "# ataqc experiment results\n\ngenerated %s, quick=%v, trials=%d, seed=%d\n\n",
		time.Now().Format(time.RFC3339), *quick, cfg.Trials, cfg.Seed)
	for _, r := range runners {
		if !all && !selected[r.id] {
			continue
		}
		start := time.Now()
		rep, err := r.run()
		if err != nil {
			log.Fatalf("%s: %v", r.id, err)
		}
		if _, err := rep.WriteTo(w); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "%s done in %s\n", r.id, time.Since(start).Round(time.Millisecond))
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if werr := cfg.Trace.WriteFormat(f, *traceFmt); werr != nil {
			log.Fatal(werr)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trace: %s (%s)\n", *traceOut, *traceFmt)
	}
}
