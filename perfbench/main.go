// Command perfbench is the repository benchmark. It runs one of three
// workloads over a request list drawn from -seed, measures for -seconds,
// checks every answer from outside the compiler, and prints one JSON
// result line: the end-to-end metrics with -trace 0, the per-layer metrics
// with -trace 1. README.md explains the workloads and metrics; run.sh
// builds it and the daemon. Run from the repository root:
//
//	bash perfbench/run.sh --workload serve-cold --seed 3 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/ata-pattern/ataqc/perfbench/hostref"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	daemon   string // ataqcd binary, for the serve workloads
	workdir  string // cache directories and span output
	tiny     bool   // self-test inputs
}

// sample is one timed request of a run.
type sample struct {
	round    int
	form     int
	lat      time.Duration // what the caller waited
	status   int           // HTTP status; 200 for an in-process compile that returned
	degraded bool
	answer   int // index into run.answers; -1 when none came back
	// compileMs is the compile call the Timeline phases belong to: the
	// in-process call, or the daemon's elapsedMs.
	compileMs float64
	phases    map[string]float64 // ms
	serverMs  float64
	queueMs   float64
	respBytes int
	tier      string
	traceID   string
	allocMB   float64
	gcCycles  float64
}

// roundStat is one round: a fresh set-up followed by the full request list.
type roundStat struct {
	traced bool
	setup  time.Duration
	busy   time.Duration // timed phase without the reference-kernel pauses
	rssMB  float64
	cpuMs  float64 // daemon CPU time over the timed phase
	refs   []float64
	cache  cacheCounts
	replay replayStat
}

type run struct {
	cfg       config
	in        *inputs
	tr        *tracer // nil in untraced runs; checks and replays use it directly
	ref       *hostref.Kernel
	refs      []float64 // every reference-kernel sample, ms
	samples   []sample
	answers   []*answer
	answerIdx map[string]int
	rounds    []roundStat
	problems  []error // run-level check failures
	layerGaps [2]float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(mainErr(os.Args[1:], os.Stdout)) }

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }

func mainErr(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "compile-dense, serve-cold or serve-repeat")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for the request list")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.StringVar(&cfg.daemon, "daemon", "", "path to the ataqcd binary")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for cache dirs and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		logf("bad -trace or -seconds")
		return 2
	}
	res, meta, err := execute(cfg)
	if err != nil {
		logf("%v", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"meta": meta}); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	return 0
}

func execute(cfg config) (*result, map[string]any, error) {
	in, err := makeInputs(cfg.workload, cfg.seed, cfg.tiny)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, nil, err
	}
	r := &run{cfg: cfg, in: in, ref: hostref.New(), answerIdx: map[string]int{}}
	if cfg.trace {
		r.tr = newTracer()
	}
	switch cfg.workload {
	case "compile-dense":
		err = r.compileDense()
	default:
		if cfg.daemon == "" {
			return nil, nil, errors.New("serve workloads need -daemon")
		}
		err = r.serveRounds()
	}
	if err != nil {
		return nil, nil, err
	}
	r.checkAnswers()
	res := &result{Attempted: len(r.samples)}
	for _, s := range r.samples {
		if !r.ok(s) {
			res.Failed++
		}
	}
	if cfg.trace {
		res.Metrics = r.perLayer()
		r.layerGaps[0], r.layerGaps[1] = r.checkLayerSums(res.Metrics)
		path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := r.tr.write(path); err != nil {
			return nil, nil, err
		}
	} else {
		res.Metrics = r.endToEnd()
	}
	for _, p := range r.problems {
		logf("%v", p)
	}
	res.Correct = res.Failed == 0 && len(r.problems) == 0 && res.Attempted > 0
	return res, r.meta(), nil
}

// ok: a 2xx answer, not degraded, that passed the outside check.
func (r *run) ok(s sample) bool {
	return s.status == 200 && !s.degraded && s.answer >= 0 && r.answers[s.answer].err == nil
}

// refSample runs the host reference kernel once. Callers invoke it only
// between requests, never while one is in flight.
func (r *run) refSample(rs *roundStat, parent int) {
	id := r.roundTracer(rs).start("host.ref", parent, -1)
	d := ms(r.ref.Run())
	r.roundTracer(rs).end(id)
	r.refs = append(r.refs, d)
	rs.refs = append(rs.refs, d)
}

// roundTracer is the tracer for spans inside a round: only traced rounds
// record, so the untraced rounds of a traced run measure the overhead.
func (r *run) roundTracer(rs *roundStat) *tracer {
	if rs.traced {
		return r.tr
	}
	return nil
}

// deadlineReached ends the run after the last complete round past the
// measuring time. A traced run needs one traced and one untraced round.
func (r *run) deadlineReached(t0 time.Time) bool {
	if r.cfg.trace && len(r.rounds) < 2 {
		return false
	}
	return time.Since(t0).Seconds() >= r.cfg.seconds
}
