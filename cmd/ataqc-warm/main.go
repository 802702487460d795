// Command ataqc-warm precompiles a bench workload's entire problem mix
// into a persistent compilation cache (see -cache-dir on ataqcd), so a
// daemon pointed at the same directory answers those requests from disk
// on its very first request.
//
// Only compiled results are written. The structured patterns' region
// geometry is a closed-form function of the device's regular structure;
// every process derives it in microseconds on first use, which is no
// slower than reading it back from disk.
//
// Example:
//
//	ataqc-warm -cache-dir /var/cache/ataqc -workload examples/workloads/repeat-heavy.yaml
//	ataqcd -cache-dir /var/cache/ataqc
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/cachestore"
	"github.com/ata-pattern/ataqc/internal/core"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/loadgen"
)

func main() {
	os.Exit(runCLI(os.Args[1:], os.Stderr))
}

// runCLI parses args and warms the cache, returning the exit code: 0 on
// success or -h, 1 when warming fails, 2 on a usage error.
func runCLI(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("ataqc-warm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir      = fs.String("cache-dir", "", "persistent compilation-cache directory to warm (required)")
		maxBytes = fs.Int64("cache-max-bytes", 0, "disk cache byte budget (0 = unbounded)")
		workload = fs.String("workload", "", "bench workload spec whose problem mix is precompiled into the result cache (required)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *dir == "" || *workload == "" {
		fmt.Fprintln(stderr, "ataqc-warm: -cache-dir and -workload are required")
		return 2
	}
	if err := run(*dir, *maxBytes, *workload, stderr); err != nil {
		fmt.Fprintf(stderr, "ataqc-warm: %v\n", err)
		return 1
	}
	return 0
}

func run(dir string, maxBytes int64, workload string, log io.Writer) error {
	store, err := cachestore.Open(dir, maxBytes)
	if err != nil {
		return err
	}
	cache := core.NewCache(cachestore.NewTiered(store, 0))
	defer cache.Close()

	n, err := warmWorkload(cache, workload)
	if err != nil {
		return err
	}
	st := store.Stats()
	fmt.Fprintf(log, "ataqc-warm: %d results precompiled; cache now holds %d entries, %d bytes\n", n, st.Entries, st.Bytes)
	return nil
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
		a, err := arch.ByFamily(m.Arch, m.N)
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
