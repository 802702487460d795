package core

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/swapnet"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/engine_digests.txt from the Workers=1 uncached compiles")

const engineDigestsFile = "testdata/engine_digests.txt"

// digestInstance is one frozen compile of the prediction-engine digest
// suite; opts carries everything but Workers and PatternCache, which the
// suite varies.
type digestInstance struct {
	name string
	a    *arch.Arch
	p    *graph.Graph
	opts Options
}

// engineDigestInstances is the suite's matrix: the cached differential
// matrix (105 instances), the parallel-determinism matrix (12), and
// grid-64/ER-0.5 seed 1, the one instance long enough to decimate its
// checkpoints.
func engineDigestInstances() []digestInstance {
	var out []digestInstance
	for _, a := range cachedDiffArchs() {
		for _, fam := range []string{"er-0.2", "er-0.5", "er-0.8", "regular-3", "lattice"} {
			for seed := int64(1); seed <= 7; seed++ {
				out = append(out, digestInstance{
					name: fmt.Sprintf("cached/%s/%s/%d", a.Name, fam, seed),
					a:    a,
					p:    cachedDiffProblem(fam, a, seed),
					opts: cachedDiffOptions(a, seed),
				})
			}
		}
	}
	const n = 16
	for _, ac := range []struct {
		name string
		a    *arch.Arch
	}{
		{"line", arch.Line(n)},
		{"grid", arch.Grid(4, 4)},
		{"heavy-hex", arch.HeavyHexN(n)},
	} {
		for _, pc := range []struct {
			name string
			g    *graph.Graph
		}{
			{"er-0.1", graph.GnpConnected(n, 0.1, rand.New(rand.NewSource(41)))},
			{"er-0.5", graph.GnpConnected(n, 0.5, rand.New(rand.NewSource(42)))},
			{"er-0.9", graph.GnpConnected(n, 0.9, rand.New(rand.NewSource(43)))},
			{"regular-3", graph.MustRandomRegular(n, 3, rand.New(rand.NewSource(44)))},
		} {
			out = append(out, digestInstance{name: "determinism/" + ac.name + "/" + pc.name, a: ac.a, p: pc.g})
		}
	}
	out = append(out, digestInstance{
		name: "grid-64/er-0.5/1",
		a:    arch.GridN(64),
		p:    graph.GnpConnected(64, 0.5, rand.New(rand.NewSource(1))),
	})
	return out
}

// engineDigest is the frozen record of one compile: the QASM's sha256 and
// the selector's provenance counters.
func engineDigest(t *testing.T, name string, res *Result) string {
	s := res.Stats
	return fmt.Sprintf("%s %x %s %d %d %d %d", name, sha256.Sum256(qasmOf(t, res)),
		res.Source, s.SelectedPrefix, s.Checkpoints, s.Predictions, s.WorkUnits)
}

// TestPredictionEngineDigests pins the hybrid prediction engine to outputs
// recorded in testdata: every instance must reproduce its QASM digest,
// source, selected checkpoint and work counters at Workers 1, 2 and 8,
// with and without a pattern cache shared across the whole matrix. Run
// with -update to rewrite the file; only do so when an output change is
// intended.
func TestPredictionEngineDigests(t *testing.T) {
	instances := engineDigestInstances()
	if *updateDigests {
		var b strings.Builder
		for _, in := range instances {
			opts := in.opts
			opts.Workers = 1
			res, err := Compile(in.a, in.p, opts)
			if err != nil {
				t.Fatalf("%s: %v", in.name, err)
			}
			b.WriteString(engineDigest(t, in.name, res) + "\n")
		}
		if err := os.MkdirAll(filepath.Dir(engineDigestsFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(engineDigestsFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	f, err := os.Open(engineDigestsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(instances) {
		t.Fatalf("%s holds %d digests for %d instances", engineDigestsFile, len(want), len(instances))
	}

	for _, workers := range []int{1, 2, 8} {
		for _, shared := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/shared=%v", workers, shared), func(t *testing.T) {
				var cache *swapnet.PatternCache
				if shared {
					cache = swapnet.NewPatternCache(0)
				}
				for i, in := range instances {
					opts := in.opts
					opts.Workers, opts.PatternCache = workers, cache
					res, err := Compile(in.a, in.p, opts)
					if err != nil {
						t.Fatalf("%s: %v", in.name, err)
					}
					if got := engineDigest(t, in.name, res); got != want[i] {
						t.Errorf("digest mismatch:\n  got  %s\n  want %s", got, want[i])
					}
				}
			})
		}
	}
}
