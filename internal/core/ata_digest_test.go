package core

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ata-pattern/ataqc/internal/swapnet"
)

const ataDigestsFile = "testdata/ata_digests.txt"

// ataDigestModes are the two compiles that run a pattern without the
// hybrid selector: ModeATA, and a hybrid compile starved by MaxNodes=1,
// which degrades to the pure-ATA rung of the ladder.
var ataDigestModes = []struct {
	name  string
	apply func(*Options)
}{
	{"ata", func(o *Options) { o.Mode = ModeATA }},
	{"degraded", func(o *Options) { o.MaxNodes = 1 }},
}

// TestATAModeDigests pins the pattern-only compiles to outputs recorded in
// testdata, over the same instances as TestPredictionEngineDigests, with
// and without a pattern cache shared across the whole matrix. Run with
// -update to rewrite the file; only do so when an output change is
// intended.
func TestATAModeDigests(t *testing.T) {
	instances := engineDigestInstances()
	digest := func(mode string, in digestInstance, res *Result) string {
		return fmt.Sprintf("%s degraded=%v", engineDigest(t, mode+"/"+in.name, res), res.Degraded)
	}
	if *updateDigests {
		var b strings.Builder
		for _, m := range ataDigestModes {
			for _, in := range instances {
				opts := in.opts
				opts.Workers = 1
				m.apply(&opts)
				res, err := Compile(in.a, in.p, opts)
				if err != nil {
					t.Fatalf("%s/%s: %v", m.name, in.name, err)
				}
				b.WriteString(digest(m.name, in, res) + "\n")
			}
		}
		if err := os.MkdirAll(filepath.Dir(ataDigestsFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ataDigestsFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	f, err := os.Open(ataDigestsFile)
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
	if len(want) != len(ataDigestModes)*len(instances) {
		t.Fatalf("%s holds %d digests for %d instances", ataDigestsFile, len(want), len(ataDigestModes)*len(instances))
	}

	for _, shared := range []bool{false, true} {
		t.Run(fmt.Sprintf("shared=%v", shared), func(t *testing.T) {
			var cache *swapnet.PatternCache
			if shared {
				cache = swapnet.NewPatternCache(0)
			}
			for mi, m := range ataDigestModes {
				for i, in := range instances {
					opts := in.opts
					opts.Workers, opts.PatternCache = 1, cache
					m.apply(&opts)
					res, err := Compile(in.a, in.p, opts)
					if err != nil {
						t.Fatalf("%s/%s: %v", m.name, in.name, err)
					}
					if got, w := digest(m.name, in, res), want[mi*len(instances)+i]; got != w {
						t.Errorf("digest mismatch:\n  got  %s\n  want %s", got, w)
					}
				}
			}
		})
	}
}
