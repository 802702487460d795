package core

import (
	"context"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
)

// TestCancellationLeaksNoGoroutines hammers CompileContext with
// cancellations that land mid-hybrid-fan-out and asserts the prediction
// worker pool always winds down: the goroutine count settles back to the
// baseline. A leaked worker per cancelled request is exactly the failure
// mode that would OOM the serving daemon (cmd/ataqcd) under client churn,
// so this is the serving layer's liveness contract pushed down to its root.
func TestCancellationLeaksNoGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer test")
	}
	a := arch.GridN(36)
	rng := rand.New(rand.NewSource(42))
	problems := make([]*graph.Graph, 8)
	for i := range problems {
		problems[i] = graph.GnpConnected(36, 0.4, rng)
	}

	baseline := settledGoroutines()
	const rounds = 60
	for i := 0; i < rounds; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			// Alternate a pool of one (the served configuration) with a
			// wide fan-out; unbounded budgets keep the pool alive until
			// the cancel lands.
			workers := []int{1, 8}[i%2]
			_, _ = CompileContext(ctx, a, problems[i%len(problems)], Options{Workers: workers})
		}()
		// Stagger the cancel across the compile's lifetime so some land
		// while the pool is mid-flight, some before it starts, some after
		// it finished.
		time.Sleep(time.Duration(i%7) * 500 * time.Microsecond)
		cancel()
		<-done
	}

	after := settledGoroutines()
	// Allow a little runtime noise (finalizers, timer goroutines), but a
	// leak of even a fraction of the spawned workers blows past it.
	if after > baseline+5 {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutines grew %d -> %d after %d cancelled compiles; stacks:\n%s",
			baseline, after, rounds, dumpCompileStacks(string(buf[:n])))
	}
}

// settledGoroutines samples runtime.NumGoroutine after letting stragglers
// finish: it polls until the count is stable (or a deadline passes), so the
// measurement is not racing a pool that is mid-teardown.
func settledGoroutines() int {
	last := runtime.NumGoroutine()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == last {
			return n
		}
		last = n
	}
	return last
}

// dumpCompileStacks filters a full stack dump down to this package's
// goroutines, so a failure names the leaking function instead of burying it
// in the test harness's own stacks.
func dumpCompileStacks(all string) string {
	var out []string
	for _, g := range strings.Split(all, "\n\n") {
		if strings.Contains(g, "internal/core") {
			out = append(out, g)
		}
	}
	if len(out) == 0 {
		return all
	}
	return strings.Join(out, "\n\n")
}
