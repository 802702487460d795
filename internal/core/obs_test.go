package core

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/obs"
	"github.com/ata-pattern/ataqc/internal/verify"
)

// qasmBytes renders a result's circuit so two compiles can be compared
// byte-for-byte.
func qasmBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := res.Circuit.WriteQASM(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestTracedCompileMatchesUntraced is the observability contract: attaching
// a trace must never change the compiled circuit, byte for byte, serial or
// parallel.
func TestTracedCompileMatchesUntraced(t *testing.T) {
	a := arch.GridN(36)
	p := testProblem(t, 36, 0.5, 7)
	for _, workers := range []int{1, 8} {
		plain, err := Compile(a, p, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.New()
		traced, err := Compile(a, p, Options{Workers: workers, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(qasmBytes(t, plain), qasmBytes(t, traced)) {
			t.Fatalf("workers=%d: traced compile produced a different circuit", workers)
		}
		if plain.Source != traced.Source || plain.Metrics.Depth != traced.Metrics.Depth {
			t.Fatalf("workers=%d: traced selection diverged: %s/%d vs %s/%d",
				workers, plain.Source, plain.Metrics.Depth, traced.Source, traced.Metrics.Depth)
		}
	}
}

// TestTraceCoversCompilePhases asserts the span taxonomy the exporters and
// docs promise: a "compile" root, at least three distinct phases under it,
// and one "predictATA" span per evaluated checkpoint (with worker spans in
// the parallel case).
func TestTraceCoversCompilePhases(t *testing.T) {
	a := arch.GridN(36)
	p := testProblem(t, 36, 0.5, 7)
	tr := obs.New()
	res, err := Compile(a, p, Options{Workers: 8, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	spans := tr.Snapshot()
	byName := map[string]int{}
	for _, s := range spans {
		if !s.Instant {
			byName[s.Name]++
		}
	}
	if byName["compile"] != 1 {
		t.Fatalf("want exactly one compile root, got %d", byName["compile"])
	}
	phases := 0
	for _, name := range []string{"place", "greedy", "predict", "materialize", "ata", "verify"} {
		if byName[name] > 0 {
			phases++
		}
	}
	if phases < 3 {
		t.Fatalf("want >=3 distinct phase spans, got %d (%v)", phases, byName)
	}
	if evaluated := len(res.Timeline.Checkpoints); evaluated == 0 || byName["predictATA"] < evaluated {
		t.Fatalf("want one predictATA span per evaluated checkpoint (%d), got %d",
			evaluated, byName["predictATA"])
	}
	if byName["worker"] == 0 {
		t.Fatal("parallel prediction recorded no worker spans")
	}
}

// TestTimelineCollectedWithoutTrace: the compact phase breakdown is always
// on — benchmarks read it from untraced compiles.
func TestTimelineCollectedWithoutTrace(t *testing.T) {
	a := arch.GridN(36)
	p := testProblem(t, 36, 0.5, 7)
	res, err := Compile(a, p, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeline.Winner != res.Source {
		t.Fatalf("timeline winner %q != source %q", res.Timeline.Winner, res.Source)
	}
	for _, name := range []string{"place", "greedy", "predict"} {
		if res.Timeline.PhaseDuration(name) <= 0 {
			t.Fatalf("phase %q missing from the untraced timeline: %+v", name, res.Timeline.Phases)
		}
	}
	if len(res.Timeline.Checkpoints) == 0 {
		t.Fatal("no checkpoint timings on a hybrid compile")
	}
	for _, c := range res.Timeline.Checkpoints {
		if !c.Evaluated || c.Run < 0 || c.Worker < 1 {
			t.Fatalf("malformed checkpoint timing %+v", c)
		}
	}
}

// TestStatsElapsedMatchesCompileTime: satellite 1 — both fields come from
// the same single measurement, so they must be identical, not merely close.
func TestStatsElapsedMatchesCompileTime(t *testing.T) {
	a := arch.GridN(16)
	p := testProblem(t, 16, 0.4, 3)
	res, err := Compile(a, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Elapsed != res.Metrics.CompileTime {
		t.Fatalf("Stats.Elapsed %v != Metrics.CompileTime %v (must be one measurement)",
			res.Stats.Elapsed, res.Metrics.CompileTime)
	}
	if res.Stats.Elapsed <= 0 {
		t.Fatal("elapsed not measured")
	}
}

// compileOnce measures one untraced-or-traced compile.
func compileOnce(t *testing.T, a *arch.Arch, trace bool) time.Duration {
	t.Helper()
	p := testProblem(t, a.N(), 0.5, 7)
	opts := Options{Workers: 1}
	if trace {
		opts.Trace = obs.New()
	}
	start := time.Now()
	if _, err := Compile(a, p, opts); err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

// TestTracingOverheadGuard enforces the <2% tracing-overhead budget from
// the design: metric handles resolve before hot loops and disabled
// instrumentation is a pointer check, so even a live trace must stay within
// 2% of the untraced compile. Runs interleave (best-of-N each) to damp
// scheduler noise, and a small absolute epsilon absorbs timer granularity
// on fast compiles.
func TestTracingOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard")
	}
	if raceEnabled {
		t.Skip("timing guard: the race detector skews the relative cost; the CI observability job runs this guard without -race")
	}
	a := arch.GridN(36)
	const rounds = 5
	maxDur := time.Duration(1<<62 - 1)
	untraced, traced := maxDur, maxDur
	// Warm caches (page faults, lazy distance tables) outside the timed runs.
	compileOnce(t, a, false)
	for i := 0; i < rounds; i++ {
		if d := compileOnce(t, a, false); d < untraced {
			untraced = d
		}
		if d := compileOnce(t, a, true); d < traced {
			traced = d
		}
	}
	const epsilon = 5 * time.Millisecond
	limit := untraced + untraced/50 + epsilon // untraced * 1.02 + epsilon
	if traced > limit {
		t.Fatalf("traced compile %v exceeds untraced %v by more than 2%%+%v", traced, untraced, epsilon)
	}
}

// semaPass rebuilds the verification pass Compile ran for a result, so the
// sema analyzer can be re-timed in isolation.
func semaPass(a *arch.Arch, p *graph.Graph, res *Result) *verify.Pass {
	return &verify.Pass{
		Circuit: res.Circuit,
		Arch:    a,
		Problem: p,
		Initial: res.Initial,
		Final:   res.Final,
	}
}

// TestSemaOverheadGuard enforces the <2% semantic-verification budget: the
// phase-polynomial extraction is a single O(gates) sweep over the compiled
// stream, so proving the output equivalent to the problem Hamiltonian must
// cost under 2% of the compile that produced it. Best-of-N on both sides
// damps scheduler noise; the epsilon absorbs timer granularity.
func TestSemaOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard")
	}
	if raceEnabled {
		t.Skip("timing guard: the race detector skews the relative cost; the CI observability job runs this guard without -race")
	}
	a := arch.GridN(36)
	p := testProblem(t, 36, 0.5, 7)
	res, err := Compile(a, p, Options{Workers: 1}) // warm caches
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 5
	maxDur := time.Duration(1<<62 - 1)
	compile, sema := maxDur, maxDur
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if _, err := Compile(a, p, Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < compile {
			compile = d
		}
	}
	pass := semaPass(a, p, res)
	for i := 0; i < rounds*4; i++ {
		start := time.Now()
		if diags := verify.Run(pass, verify.Sema); len(diags) != 0 {
			t.Fatalf("sema flagged the compiled circuit: %v", diags)
		}
		if d := time.Since(start); d < sema {
			sema = d
		}
	}
	const epsilon = 2 * time.Millisecond
	limit := compile/50 + epsilon // 2% of compile + epsilon
	if sema > limit {
		t.Fatalf("sema verification %v exceeds 2%% of compile %v (+%v)", sema, compile, epsilon)
	}
}

// BenchmarkSemaVerify is the standalone cost of the semantic-equivalence
// proof on a realistic compiled circuit; compare against BenchmarkCompileNoTrace
// for the relative overhead.
func BenchmarkSemaVerify(b *testing.B) {
	a := arch.GridN(36)
	rng := rand.New(rand.NewSource(7))
	p := graph.GnpConnected(36, 0.5, rng)
	res, err := Compile(a, p, Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	pass := semaPass(a, p, res)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if diags := verify.Run(pass, verify.Sema); len(diags) != 0 {
			b.Fatal(diags)
		}
	}
}

func benchCompile(b *testing.B, traced bool) {
	a := arch.GridN(36)
	rng := rand.New(rand.NewSource(7))
	p := graph.GnpConnected(36, 0.5, rng)
	a.Distances()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tr *obs.Trace
		if traced {
			tr = obs.New() // fresh per iteration: steady-state span cost, no growth artefact
		}
		if _, err := Compile(a, p, Options{Workers: 1, Trace: tr}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileNoTrace vs BenchmarkCompileTraced is the honest cost of
// the observability layer; compare with `go test -bench Compile.*Trace`.
func BenchmarkCompileNoTrace(b *testing.B) { benchCompile(b, false) }

func BenchmarkCompileTraced(b *testing.B) { benchCompile(b, true) }
