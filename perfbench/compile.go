package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	ataqc "github.com/ata-pattern/ataqc"
	"github.com/ata-pattern/ataqc/internal/graph"
)

// compileDense runs the compile-dense workload: one caller compiles the
// dense instance list back to back through ataqc.CompileContext with
// default Options (hybrid, Workers = GOMAXPROCS, no cache). Each round
// first builds fresh devices and compiles one sparse warm-up per device;
// that set-up is the round's setup time.
func (r *run) compileDense() error {
	probs := make([]*ataqc.Problem, len(r.in.forms))
	for i, f := range r.in.forms {
		probs[i] = publicProblem(f.g)
	}
	ctx := context.Background()
	t0 := time.Now()
	for round := 0; !r.deadlineReached(t0); round++ {
		rs := roundStat{traced: r.cfg.trace && round%2 == 1}
		tr := r.roundTracer(&rs)
		root := tr.start("round", 0, -1)

		sp := tr.start("setup", root, -1)
		st := time.Now()
		devs := map[string]*ataqc.Device{}
		for _, p := range r.in.problems {
			key := fmt.Sprintf("%s/%d", p.arch, p.n)
			if devs[key] != nil {
				continue
			}
			dev, err := deviceFor(p.arch, p.n)
			if err != nil {
				return err
			}
			if _, err := ataqc.CompileContext(ctx, dev, publicProblem(graph.Cycle(p.n)), ataqc.Options{}); err != nil {
				return fmt.Errorf("warm-up on %s: %w", key, err)
			}
			devs[key] = dev
		}
		rs.setup = time.Since(st)
		tr.end(sp)

		for _, fi := range r.in.order {
			p := r.in.problems[r.in.forms[fi].problem]
			dev := devs[fmt.Sprintf("%s/%d", p.arch, p.n)]
			s := sample{round: len(r.rounds), form: fi, answer: -1}
			var m0, m1 runtime.MemStats
			if rs.traced {
				runtime.ReadMemStats(&m0)
			}
			id := tr.start("compile", root, len(r.samples))
			c0 := time.Now()
			res, err := ataqc.CompileContext(ctx, dev, probs[fi], ataqc.Options{})
			s.lat = time.Since(c0)
			tr.end(id)
			if rs.traced {
				runtime.ReadMemStats(&m1)
				s.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
				s.gcCycles = float64(m1.NumGC - m0.NumGC)
			}
			rs.busy += s.lat
			if err != nil {
				logf("compile %s-%d: %v", p.arch, p.n, err)
				s.status = 500
			} else {
				s.status, s.degraded, s.compileMs = 200, res.Degraded(), ms(s.lat)
				tl := res.Timeline()
				s.phases = map[string]float64{}
				for _, ph := range tl.Phases {
					s.phases[ph.Name] += ms(ph.Duration)
				}
				s.answer = r.resultAnswer(fi, dev, res)
			}
			r.samples = append(r.samples, s)
			r.refSample(&rs, root)
		}
		rs.rssMB = procMB("self", "VmHWM")
		tr.end(root)
		r.rounds = append(r.rounds, rs)
	}
	return nil
}

// resultAnswer files an in-process result. The QASM is written only for a
// circuit not seen before; a repeat is recognised by its metrics and
// mappings, which is enough to tell a changed circuit apart.
func (r *run) resultAnswer(fi int, dev *ataqc.Device, res *ataqc.Result) int {
	key := fmt.Sprint(fi, res.Depth(), res.CXCount(), res.InitialMapping(), res.FinalMapping())
	return r.addAnswer(key, func() *answer {
		a := &answer{form: fi, initial: res.InitialMapping(), final: res.FinalMapping(),
			depth: res.Depth(), cx: res.CXCount(), device: dev.Name()}
		var sb strings.Builder
		if err := res.WriteQASM(&sb); err != nil {
			a.err = fmt.Errorf("WriteQASM: %w", err)
		}
		a.qasm = sb.String()
		return a
	})
}
