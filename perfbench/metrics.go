package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"github.com/ata-pattern/ataqc/internal/cachestore"
	"github.com/ata-pattern/ataqc/internal/graph"
)

// Settings fixed by the benchmark. BENCHMARK.json's keys are fixed by its
// schema, so these live here; README.md records how each was chosen.
const (
	// refNominalMs is the reference kernel's p50 on the reference host
	// (2-vCPU Intel Xeon VM). Host-adjusted timings are scaled to it.
	refNominalMs = 4.0
	// layerTolerance bounds the in-process compile time the Timeline
	// phases leave unexplained, as a share of it.
	layerTolerance = 0.05
)

// sloLimitMs is each workload's per-request latency limit for
// slo_ok_ratio, two to three times its p90 on the reference host.
var sloLimitMs = map[string]float64{
	"compile-dense": 250,
	"serve-cold":    120,
	"serve-repeat":  25,
}

// adjust is the host-speed factor: refNominalMs over this run's
// reference-kernel p50. Every workload is adjusted: on each, the
// steadiness runs showed a narrower spread adjusted than raw (README.md).
func (r *run) adjust() float64 {
	return refNominalMs / median(r.refs)
}

func (r *run) untraced() []sample {
	var out []sample
	for _, s := range r.samples {
		if !r.rounds[s.round].traced {
			out = append(out, s)
		}
	}
	return out
}

func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.lat)
	}
	return out
}

func (r *run) setups(traced bool) []float64 {
	var out []float64
	for _, rs := range r.rounds {
		if rs.traced == traced {
			out = append(out, rs.setup.Seconds())
		}
	}
	return out
}

// endToEnd computes the metrics a user sees, over the untraced rounds.
func (r *run) endToEnd() map[string]metric {
	adj := r.adjust()
	ss := r.untraced()
	var lat []float64
	okN, sloN := 0, 0
	limit := sloLimitMs[r.cfg.workload]
	for _, s := range ss {
		l := ms(s.lat) * adj
		lat = append(lat, l)
		if r.ok(s) {
			okN++
			if l <= limit {
				sloN++
			}
		}
	}
	var busy float64
	var rss, setup []float64
	for _, rs := range r.rounds {
		if !rs.traced {
			busy += rs.busy.Seconds() * adj
			rss = append(rss, rs.rssMB)
			setup = append(setup, rs.setup.Seconds()*adj)
		}
	}
	depth, cx := r.totals()
	n := float64(max(len(ss), 1))
	return map[string]metric{
		"setup_s":        {median(setup), "s"},
		"latency_ms.p50": {quantile(lat, 0.5), "ms"},
		"latency_ms.p90": {quantile(lat, 0.9), "ms"},
		"throughput_rps": {float64(okN) / busy, "1/s"},
		"ok_ratio":       {float64(okN) / n, "ratio"},
		"slo_ok_ratio":   {float64(sloN) / n, "ratio"},
		"depth_total":    {depth, "count"},
		"cx_total":       {cx, "count"},
		"peak_rss_mb":    {median(rss), "MB"},
	}
}

// totals sums depth and CX over the workload's distinct problems, from the
// answer each original form received; they depend on the seed alone.
func (r *run) totals() (depth, cx float64) {
	got := make([]*answer, len(r.in.problems))
	for _, a := range r.answers {
		if a.form < len(got) && got[a.form] == nil {
			got[a.form] = a
		}
	}
	for i, a := range got {
		if a == nil {
			r.problems = append(r.problems, fmt.Errorf("problem %d never answered", i))
			continue
		}
		depth += float64(a.depth)
		cx += float64(a.cx)
	}
	return depth, cx
}

// replayStat is the cachestore layer measured by replaying the entries a
// round's daemon wrote against a fresh Store.
type replayStat struct {
	putMs, getUs, entryKB []float64
}

func (r *run) replayCache(dir string, parent int) (replayStat, error) {
	var st replayStat
	type entry struct {
		k       cachestore.Key
		payload []byte
	}
	var entries []entry
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() == "index.log" {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		k, payload, err := cachestore.DecodeEntry(b)
		if err != nil {
			return nil // a temp file of an interrupted write is not an entry
		}
		entries = append(entries, entry{k, payload})
		st.entryKB = append(st.entryKB, float64(len(b))/1024)
		return nil
	})
	if err != nil {
		return st, err
	}
	rdir := dir + "-replay"
	defer os.RemoveAll(rdir)
	store, err := cachestore.Open(rdir, 0)
	if err != nil {
		return st, err
	}
	defer store.Close()
	for _, e := range entries {
		id := r.tr.start("cachestore.put", parent, -1)
		t0 := time.Now()
		err := store.Put(e.k, e.payload)
		st.putMs = append(st.putMs, ms(time.Since(t0)))
		r.tr.end(id)
		if err != nil {
			return st, err
		}
	}
	for _, e := range entries {
		id := r.tr.start("cachestore.get", parent, -1)
		t0 := time.Now()
		_, ok := store.Get(e.k)
		st.getUs = append(st.getUs, float64(time.Since(t0))/float64(time.Microsecond))
		r.tr.end(id)
		if !ok {
			r.problems = append(r.problems, fmt.Errorf("replayed cache entry %v missing", e.k))
		}
	}
	return st, nil
}

// perLayer computes the per-layer metrics from the traced rounds; the
// untraced rounds of the same run give the raw twins and the overhead.
func (r *run) perLayer() map[string]metric {
	var traced []sample
	for _, s := range r.samples {
		if r.rounds[s.round].traced {
			traced = append(traced, s)
		}
	}
	phase := func(name string) []float64 {
		var out []float64
		for _, s := range traced {
			if len(s.phases) > 0 {
				out = append(out, s.phases[name])
			}
		}
		return out
	}
	var unacc, alloc, gcs, server, overhead, queue, respKB, canon, compile, predict []float64
	for _, s := range traced {
		if len(s.phases) > 0 {
			unacc = append(unacc, s.compileMs-sumPhases(s.phases))
			compile = append(compile, s.compileMs)
			predict = append(predict, s.phases["predict"])
		}
		alloc = append(alloc, s.allocMB)
		gcs = append(gcs, s.gcCycles)
		if s.traceID != "" {
			server = append(server, s.serverMs)
			overhead = append(overhead, ms(s.lat)-s.serverMs)
			queue = append(queue, s.queueMs)
			respKB = append(respKB, float64(s.respBytes)/1024)
		}
		g := r.in.forms[s.form].g
		id := r.tr.start("graph.canonical", 0, -1)
		t0 := time.Now()
		graph.CanonicalForm(g)
		canon = append(canon, ms(time.Since(t0)))
		r.tr.end(id)
	}
	var strict []float64
	for _, a := range r.answers {
		strict = append(strict, a.strictMs)
	}
	var rp replayStat
	var cc cacheCounts
	var cpu, reqs float64
	for _, rs := range r.rounds {
		if !rs.traced {
			continue
		}
		rp.putMs = append(rp.putMs, rs.replay.putMs...)
		rp.getUs = append(rp.getUs, rs.replay.getUs...)
		rp.entryKB = append(rp.entryKB, rs.replay.entryKB...)
		cc.mem, cc.disk, cc.miss = cc.mem+rs.cache.mem, cc.disk+rs.cache.disk, cc.miss+rs.cache.miss
		cpu += rs.cpuMs
		reqs += float64(len(r.in.order))
	}
	lookups := cc.mem + cc.disk + cc.miss
	ratio := func(x float64) float64 {
		if lookups == 0 {
			return 0
		}
		return x / lookups
	}
	cpuPerReq := 0.0
	if reqs > 0 && len(server) > 0 {
		cpuPerReq = cpu / reqs
	}
	predictShare := 0.0
	if sum(compile) > 0 {
		predictShare = sum(predict) / sum(compile)
	}
	rawLat := latencies(r.untraced())
	overheadRatio := 0.0
	if q := quantile(rawLat, 0.5); q > 0 {
		overheadRatio = quantile(latencies(traced), 0.5) / q
	}
	return map[string]metric{
		"core.place_ms.p50":           {median(phase("place")), "ms"},
		"core.greedy_ms.p50":          {median(phase("greedy")), "ms"},
		"core.predict_ms.p50":         {median(phase("predict")), "ms"},
		"core.materialize_ms.p50":     {median(phase("materialize")), "ms"},
		"core.verify_ms.p50":          {median(phase("verify")), "ms"},
		"core.unaccounted_ms.p50":     {median(unacc), "ms"},
		"core.predict_share":          {predictShare, "ratio"},
		"runtime.alloc_mb_per_op":     {mean(alloc), "MB"},
		"runtime.gc_cycles_per_op":    {mean(gcs), "count"},
		"graph.canonical_ms.p50":      {median(canon), "ms"},
		"verify.strict_ms.p50":        {median(strict), "ms"},
		"cachestore.put_ms.p50":       {median(rp.putMs), "ms"},
		"cachestore.get_us.p50":       {median(rp.getUs), "us"},
		"cachestore.entry_kb.mean":    {mean(rp.entryKB), "KB"},
		"cachestore.hit_ratio.mem":    {ratio(cc.mem), "ratio"},
		"cachestore.hit_ratio.disk":   {ratio(cc.disk), "ratio"},
		"cachestore.miss_ratio":       {ratio(cc.miss), "ratio"},
		"serve.server_ms.p50":         {median(server), "ms"},
		"serve.overhead_ms.p50":       {median(overhead), "ms"},
		"serve.queue_wait_ms.p90":     {quantile(queue, 0.9), "ms"},
		"serve.response_kb.mean":      {mean(respKB), "KB"},
		"serve.daemon_cpu_ms_per_req": {cpuPerReq, "ms"},
		"host.ref_ms.p50":             {median(r.refs), "ms"},
		"host.raw_latency_ms.p50":     {quantile(rawLat, 0.5), "ms"},
		"host.raw_latency_ms.p90":     {quantile(rawLat, 0.9), "ms"},
		"host.raw_setup_s":            {median(r.setups(false)), "s"},
		"bench.trace_overhead_ratio":  {overheadRatio, "ratio"},
	}
}

func sumPhases(ph map[string]float64) float64 {
	t := 0.0
	for _, v := range ph {
		t += v
	}
	return t
}

// checkLayerSums checks, on the traced rounds, that the layers add up to
// the latency they split. The parts come from separate clocks: Timeline
// phases from the compiler, elapsedMs from the daemon, latency from the
// benchmark. Per request, the phases may not exceed the compile time and
// the daemon's time may not exceed the client's. Over the in-process
// compiles, the unaccounted rest may be at most layerTolerance of compile
// time: the phases must explain the compile. (The daemon's elapsedMs also
// holds the cache's hashing, lookup and disk write, which no phase covers;
// cachestore.put_ms and graph.canonical_ms measure those.) It returns the
// unaccounted share of in-process compile time and the gap between the
// reported serve p50s and the client p50, which p50s need not close
// exactly (0 when a split is absent).
func (r *run) checkLayerSums(m map[string]metric) (unaccShare, serveGap float64) {
	var compile, unacc, lat []float64
	for _, s := range r.samples {
		if !r.rounds[s.round].traced || !r.ok(s) {
			continue
		}
		if len(s.phases) > 0 {
			ph := sumPhases(s.phases)
			if ph > s.compileMs+0.01 {
				r.problems = append(r.problems, fmt.Errorf("phases %.3f ms exceed compile %.3f ms", ph, s.compileMs))
			}
			if s.traceID == "" {
				compile = append(compile, s.compileMs)
				unacc = append(unacc, s.compileMs-ph)
			}
		}
		if s.traceID != "" {
			if l := ms(s.lat); l < s.serverMs {
				r.problems = append(r.problems, fmt.Errorf("server time %.3f ms exceeds client latency %.3f ms", s.serverMs, l))
			}
			lat = append(lat, ms(s.lat))
		}
	}
	if t := sum(compile); t > 0 {
		unaccShare = sum(unacc) / t
		if unaccShare > layerTolerance {
			r.problems = append(r.problems, fmt.Errorf("unaccounted time is %.1f%% of compile time (tolerance %.0f%%)",
				100*unaccShare, 100*layerTolerance))
		}
	}
	if p50 := median(lat); p50 > 0 {
		serveGap = (m["serve.server_ms.p50"].Value + m["serve.overhead_ms.p50"].Value - p50) / p50
	}
	return unaccShare, serveGap
}

// meta is the run's context, printed before the result line.
func (r *run) meta() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	ss := r.untraced()
	lat := latencies(ss)
	// Round-to-round spread of the p50, raw and host-adjusted by each
	// round's own reference p50: the adjustment has to narrow it to earn
	// its place.
	var roundRaw, roundAdj []float64
	for i, rs := range r.rounds {
		var l []float64
		for _, s := range ss {
			if s.round == i {
				l = append(l, ms(s.lat))
			}
		}
		if len(l) == 0 || len(rs.refs) == 0 {
			continue
		}
		roundRaw = append(roundRaw, median(l))
		roundAdj = append(roundAdj, median(l)*refNominalMs/median(rs.refs))
	}
	tail := 0
	p90 := quantile(lat, 0.9)
	for _, l := range lat {
		if l > p90 {
			tail++
		}
	}
	return map[string]any{
		"workload":         r.cfg.workload,
		"seed":             r.cfg.seed,
		"trace":            r.cfg.trace,
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"cpu":              cpu,
		"go":               runtime.Version(),
		"commit":           commit,
		"rounds":           len(r.rounds),
		"latency_samples":  len(lat),
		"p90_tail_samples": tail,
		"setup_samples":    len(r.setups(false)),
		"ref_samples":      len(r.refs),
		"ref_ms_p50":       median(r.refs),
		"host_adjust":      r.adjust(),
		"raw": map[string]float64{
			"latency_ms.p50": quantile(lat, 0.5),
			"latency_ms.p90": p90,
			"setup_s":        median(r.setups(false)),
		},
		"round_p50_spread":  map[string]float64{"raw": spread(roundRaw), "adjusted": spread(roundAdj)},
		"answers":           len(r.answers),
		"unaccounted_share": r.layerGaps[0],
		"serve_p50_gap":     r.layerGaps[1],
	}
}
