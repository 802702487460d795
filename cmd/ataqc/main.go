// Command ataqc compiles a problem graph — synthetic or loaded from an edge
// list — onto a regular quantum architecture and reports the paper's
// metrics.
//
// Usage:
//
//	ataqc -arch heavy-hex -n 64 -density 0.3 -strategy hybrid
//	ataqc -arch mumbai -n 10 -density 0.3 -noise -qasm out.qasm
//	ataqc -arch grid -problem edges.txt -json
//
// The edge-list format is one "u v" pair per line (0-based vertex ids);
// blank lines and lines starting with '#' are ignored.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime/pprof"
	"slices"

	"github.com/ata-pattern/ataqc"
)

func main() {
	var (
		family   = flag.String("arch", "heavy-hex", "architecture family: line, grid, sycamore, heavy-hex, hexagon, mumbai")
		n        = flag.Int("n", 64, "number of logical qubits")
		density  = flag.Float64("density", 0.3, "problem graph density")
		regular  = flag.Bool("regular", false, "use a random regular graph instead of G(n,p)")
		seed     = flag.Int64("seed", 1, "workload seed")
		strategy = flag.String("strategy", "hybrid", "hybrid, greedy, ata, 2qan, qaim, paulihedral")
		noisy    = flag.Bool("noise", false, "attach a synthetic calibration and compile noise-aware")
		qasmOut  = flag.String("qasm", "", "write the compiled circuit as OpenQASM 2.0 to this file")
		probFile = flag.String("problem", "", "load the problem graph from an edge-list file instead of generating one")
		asJSON   = flag.Bool("json", false, "emit the result as JSON")
		showArch = flag.Bool("show-arch", false, "print an ASCII picture of the device and exit")
		showSch  = flag.Bool("schedule", false, "print the compiled schedule cycle by cycle")
		timeout  = flag.Duration("timeout", 0, "wall-clock compile budget, e.g. 30s (0 = unbounded); on expiry the compiler degrades to the linear-depth ATA fallback")
		workers  = flag.Int("workers", 0, "hybrid prediction workers (0 = GOMAXPROCS); the compiled circuit is identical for every value")
		traceOut = flag.String("trace", "", "record the compile's execution trace to this file (tracing never changes the circuit)")
		traceFmt = flag.String("trace-format", "chrome", "trace format: chrome (load in ui.perfetto.dev), jsonl, or text")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file; compiler phases carry ataqc_phase/ataqc_worker pprof labels")
	)
	flag.Parse()

	if !slices.Contains(ataqc.TraceFormats, *traceFmt) {
		log.Fatalf("unknown -trace-format %q (want one of %v)", *traceFmt, ataqc.TraceFormats)
	}

	// Flag values feed generators and device constructors that treat bad
	// sizes as internal invariants; reject them at the user-input boundary.
	if *probFile == "" {
		if *n < 2 {
			log.Fatalf("-n must be at least 2 (got %d)", *n)
		}
		if *density <= 0 || *density > 1 {
			log.Fatalf("-density must be in (0,1] (got %g)", *density)
		}
	}

	// The problem comes first: a file-loaded instance determines the
	// device size.
	var prob *ataqc.Problem
	switch {
	case *probFile != "":
		var err error
		prob, err = ataqc.LoadProblem(*probFile)
		if err != nil {
			log.Fatal(err)
		}
		*n = prob.Qubits()
	case *regular:
		var err error
		prob, err = ataqc.RegularProblem(*n, *density, *seed)
		if err != nil {
			log.Fatal(err)
		}
	default:
		prob = ataqc.RandomProblem(*n, *density, *seed)
	}

	dev, err := ataqc.DeviceFor(*family, *n)
	if err != nil {
		log.Fatal(err)
	}
	if *noisy {
		dev = dev.WithSyntheticNoise(*seed)
	}
	if *showArch {
		fmt.Printf("%s (%d qubits)\n%s", dev.Name(), dev.Qubits(), dev.Render())
		return
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
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
	var tr *ataqc.Trace
	if *traceOut != "" {
		tr = ataqc.NewTrace()
	}
	res, err := ataqc.CompileContext(ctx, dev, prob, ataqc.Options{
		Strategy:   ataqc.Strategy(*strategy),
		NoiseAware: *noisy,
		Workers:    *workers,
		Trace:      tr,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := tr.WriteFormat(f, *traceFmt); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trace: %s (%s)\n", *traceOut, *traceFmt)
	}
	if res.Degraded() {
		fmt.Fprintf(os.Stderr, "note: compile budget ran out; degraded to the structured ATA fallback (%s)\n", res.DegradeReason())
	}

	// The QASM file is written before the output branches so -json and
	// -qasm compose: JSON on stdout, circuit on disk.
	if *qasmOut != "" {
		f, err := os.Create(*qasmOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := res.WriteQASM(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}

	if *asJSON {
		out := map[string]any{
			"device":       dev.Name(),
			"deviceQubits": dev.Qubits(),
			"qubits":       prob.Qubits(),
			"interactions": prob.Interactions(),
			"strategy":     *strategy,
			"depth":        res.Depth(),
			"cxCount":      res.CXCount(),
			"swaps":        res.SwapCount(),
			"initial":      res.InitialMapping(),
			"final":        res.FinalMapping(),
		}
		if res.Degraded() {
			out["degraded"] = true
			out["degradeReason"] = res.DegradeReason()
		}
		if *noisy {
			out["estimatedFidelity"] = res.EstimatedFidelity()
		}
		if *qasmOut != "" {
			out["qasm"] = *qasmOut
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Printf("device:        %s (%d qubits)\n", dev.Name(), dev.Qubits())
	fmt.Printf("problem:       %d qubits, %d interactions (density %.2f)\n",
		prob.Qubits(), prob.Interactions(), *density)
	fmt.Printf("strategy:      %s\n", *strategy)
	fmt.Printf("depth:         %d\n", res.Depth())
	fmt.Printf("CX count:      %d\n", res.CXCount())
	fmt.Printf("SWAPs:         %d\n", res.SwapCount())
	if *noisy {
		fmt.Printf("est. fidelity: %.4g\n", res.EstimatedFidelity())
	}
	if *showSch {
		if err := res.WriteSchedule(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
	if *qasmOut != "" {
		fmt.Printf("qasm:          %s\n", *qasmOut)
	}
}
