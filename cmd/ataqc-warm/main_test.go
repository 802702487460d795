package main

import (
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/cachestore"
	"github.com/ata-pattern/ataqc/internal/core"
	"github.com/ata-pattern/ataqc/internal/graph"
)

// TestWarmSweepPopulatesCache runs the sweeper end to end against a
// temporary cache directory and proves a fresh daemon-side cache actually
// benefits: the precompiled workload problem is answered from the disk
// tier, and the directory holds result entries only.
func TestWarmSweepPopulatesCache(t *testing.T) {
	dir := t.TempDir()
	var log strings.Builder
	if code := runCLI([]string{"-cache-dir", dir, "-workload", "../../examples/workloads/repeat-heavy.yaml"}, &log); code != 0 {
		t.Fatalf("exit %d: %s", code, log.String())
	}

	store, err := cachestore.Open(dir, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	cache := core.NewCache(cachestore.NewTiered(store, 0))
	defer cache.Close()
	entries := 0
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".e") {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		k, _, err := cachestore.DecodeEntry(b)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if k.Kind != cachestore.KindResult {
			return fmt.Errorf("%s: kind %d entry, want results only", path, k.Kind)
		}
		entries++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if entries == 0 {
		t.Fatal("sweep wrote no entries")
	}

	// The repeat-heavy spec's hot problem (grid 16, density 0.4, seed 3)
	// was precompiled; a brand-new cache over the same directory must
	// serve it from disk.
	hot := graph.GnpConnected(16, 0.4, rand.New(rand.NewSource(3)))
	res, err := core.CompileCached(context.Background(), arch.GridN(16), hot, core.Options{Workers: 1}, cache)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if res.Stats.CacheTier != string(cachestore.TierDisk) {
		t.Fatalf("hot problem served from tier %q, want disk", res.Stats.CacheTier)
	}
}

// TestWarmUsageErrors: -cache-dir and -workload are both required, the
// retired pattern/solver sweep flags are rejected as unknown, and a
// workload that cannot be loaded fails the run without a usage error;
// -h exits 0.
func TestWarmUsageErrors(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-cache-dir", dir}, 2},
		{[]string{"-workload", "../../examples/workloads/repeat-heavy.yaml"}, 2},
		{[]string{"-cache-dir", dir, "-workload", "x.yaml", "-archs", "grid"}, 2},
		{[]string{"-cache-dir", dir, "-workload", "x.yaml", "-solver-max-qubits", "4"}, 2},
		{[]string{"-cache-dir", dir, "-workload", filepath.Join(dir, "missing.yaml")}, 1},
		{[]string{"-h"}, 0},
	} {
		var log strings.Builder
		if code := runCLI(tc.args, &log); code != tc.code {
			t.Errorf("ataqc-warm %v: exit %d, want %d (%s)", tc.args, code, tc.code, log.String())
		}
	}
}
