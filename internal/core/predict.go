package core

import (
	"context"
	"sync"
	"time"

	"github.com/ata-pattern/ataqc/internal/obs"
	"github.com/ata-pattern/ataqc/internal/swapnet"
)

// predict is the engine of the hybrid prediction loop: every checkpoint's
// ATA prediction is independent (each works on its own State clone), so
// they fan out over a bounded pool of Options.Workers workers sharing one
// pattern cache. Workers=1 is a pool of one; the worker count changes only
// wall-clock. Determinism is by construction:
//
//   - each job's score lands in a checkpoint-indexed slot, and selection
//     scans the slots in ascending checkpoint order with a strict-less
//     comparison, so ties break identically for any worker count;
//   - scores themselves are cache-independent — a cached grid choice
//     replays exactly the pattern a fresh dual prediction picks;
//   - budget charges are commutative atomic adds, so the WorkUnits total
//     is the same whenever every checkpoint is evaluated.
//
// Want-sets only shrink along the ascending checkpoint prefixes, so the
// feeder keeps one set, removes each prefix delta's program gates from it
// — O(M + |gates|) in total — and clones it only for the job being handed
// over: at most Workers+1 want-sets are live. Workers start on demand, so
// a compile never runs more workers than it has jobs.
//
// Every worker polls the budget before each job. The first to observe
// exhaustion stops the fan-out; completed scores still participate in
// selection (the "best candidate so far" rung of the degradation ladder).
// Non-degradable interruption (context cancellation) aborts with the error
// after every worker has exited — the pool never leaks goroutines.
//
// Observability: each worker gets its own span (and exporter lane), every
// prediction a "predictATA" child span, and each job's queue wait (feed to
// pick-up) and run time land in the pool.queue_wait_us / pool.run_us
// histograms and the Timeline's per-checkpoint entries. The feed timestamp
// travels with the job through the channel, so the receiving worker reads
// it under the channel's happens-before edge.
func (h *hybridEval) predict(cps []checkpoint, stats *Stats, cache *swapnet.PatternCache, parent *obs.Span) (best *candidate, dreason DegradeReason, err error) {
	type job struct {
		i    int // index into cps
		want *swapnet.EdgeSet
		fed  time.Time
	}
	timings := make([]CheckpointTiming, len(cps))
	met := h.rec.tr.Metrics()
	waitHist := met.Histogram("pool.queue_wait_us")
	runHist := met.Histogram("pool.run_us")

	var (
		wg       sync.WaitGroup
		stopOnce sync.Once
		firstErr error // written once under stopOnce, read after wg.Wait
	)
	stop := make(chan struct{})
	jobCh := make(chan job)
	worker := func(w int) {
		defer wg.Done()
		obs.WorkerLabel(h.bud.ctx, w, func(context.Context) {
			wspan := h.rec.tr.StartSpan(parent, "worker", obs.Int("worker", w))
			wspan.SetLane(w)
			defer wspan.End()
			for j := range jobCh {
				pick := h.rec.clock.Now()
				if berr := h.bud.interrupt(); berr != nil {
					stopOnce.Do(func() { firstErr = berr; close(stop) })
					return
				}
				cp := cps[j.i]
				sp := h.rec.tr.StartSpan(wspan, "predictATA",
					obs.Int("prefix", cp.prefixLen), obs.Int("cycle", cp.cycle))
				f, ok := h.scoreCheckpoint(cp, j.want, cache)
				end := h.rec.clock.Now()
				sp.SetAttrs(obs.F64("cost", f), obs.Bool("scored", ok))
				sp.End()
				wait, run := pick.Sub(j.fed), end.Sub(pick)
				waitHist.Observe(wait.Microseconds())
				runHist.Observe(run.Microseconds())
				timings[j.i] = CheckpointTiming{
					Prefix: cp.prefixLen, Cycle: cp.cycle,
					Worker: w, Wait: wait, Run: run,
					Cost: f, Scored: ok, Evaluated: true,
				}
			}
		})
	}

	want := swapnet.NewEdgeSet(h.problem)
	prev, started := 0, 0
feed:
	for i, cp := range cps {
		removeScheduled(want, h.gates[prev:cp.prefixLen])
		prev = cp.prefixLen
		if want.Empty() {
			break // every later checkpoint's want-set is empty too
		}
		if started < h.opts.Workers {
			started++
			wg.Add(1)
			go worker(started)
		}
		select {
		case jobCh <- job{i: i, want: want.Clone(), fed: h.rec.clock.Now()}:
		case <-stop:
			break feed
		}
	}
	close(jobCh)
	wg.Wait()

	// Selection: ascending checkpoint order, strict-less. The timeline
	// keeps the same order, so phase breakdowns are comparable across runs
	// regardless of which worker ran which job.
	bestF := 1.0 // pure greedy: fD/oD = 1 and fidelity ratio = 1
	for i, tm := range timings {
		if !tm.Evaluated {
			continue
		}
		h.rec.tl.Checkpoints = append(h.rec.tl.Checkpoints, tm)
		if !tm.Scored {
			continue
		}
		stats.Predictions++
		if tm.Cost < bestF {
			bestF = tm.Cost
			best = &candidate{cp: cps[i], f: tm.Cost}
		}
	}
	if firstErr != nil {
		if !degradable(firstErr) {
			return nil, DegradeReason{}, firstErr
		}
		dreason = degradeReasonFor("best-so-far", firstErr, stats.Predictions, len(cps), h.bud, h.opts, h.rec)
	}
	return best, dreason, nil
}
