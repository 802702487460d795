package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/ata-pattern/ataqc/internal/serve"
	"github.com/ata-pattern/ataqc/internal/telemetry"
)

// clients is the closed-loop client count and the daemon's worker count:
// one per CPU of the 2-vCPU reference host. Both CPUs stay busy, and
// admission stays at the relaxed pressure level, so no answer is degraded.
const clients = 2

// batchLen is how many requests run between two reference-kernel samples,
// about 30-50 ms of requests on the reference host; the kernel runs only
// while no request is in flight.
var batchLen = map[string]int{"serve-cold": 10, "serve-repeat": 40}

// daemon is one ataqcd process with its own fresh cache directory.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	client *http.Client
}

func startDaemon(bin, cacheDir string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := tryStartDaemon(bin, cacheDir)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func tryStartDaemon(bin, cacheDir string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-addr", addr, "-cache-dir", cacheDir,
		"-workers", strconv.Itoa(clients), "-recorder-size", "4096")
	// The daemon dies with the benchmark, even when the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{
		cmd:    cmd,
		base:   "http://" + addr,
		exited: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
	}
	go func() {
		_ = cmd.Wait() // the exit status is irrelevant: stop or the ready poll reports
		close(d.exited)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("ataqcd exited before it was ready")
		default:
		}
		resp, err := d.client.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	d.stop()
	return nil, errors.New("ataqcd not ready after 20s")
}

// stop drains the daemon with SIGTERM, kills it if the drain hangs, and
// returns once the process is gone.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

func (d *daemon) post(body []byte) (int, []byte, error) {
	resp, err := d.client.Post(d.base+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return b, err
}

// reply is one raw answer, decoded after its batch so decoding never
// competes with a request in flight.
type reply struct {
	form   int
	start  time.Time
	lat    time.Duration
	status int
	body   []byte
	err    error
}

// sendAll runs bodies through the closed-loop clients: each client sends
// its next request only after its previous answer arrived.
func (d *daemon) sendAll(forms []int, body func(int) []byte) []reply {
	out := make([]reply, len(forms))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(forms) {
					return
				}
				t0 := time.Now()
				st, b, err := d.post(body(forms[i]))
				out[i] = reply{form: forms[i], start: t0, lat: time.Since(t0), status: st, body: b, err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// serveRounds runs a serve workload. Every round starts a fresh ataqcd on
// a new cache directory; set-up lasts from exec to a ready daemon that has
// answered the warm-up (serve-cold) or prefill (serve-repeat) requests.
func (r *run) serveRounds() error {
	t0 := time.Now()
	for round := 0; !r.deadlineReached(t0); round++ {
		if err := r.serveRound(round); err != nil {
			return err
		}
	}
	return nil
}

func (r *run) serveRound(round int) error {
	rs := roundStat{traced: r.cfg.trace && round%2 == 1}
	tr := r.roundTracer(&rs)
	root := tr.start("round", 0, -1)
	dir, err := filepath.Abs(filepath.Join(r.cfg.workdir, "cache", fmt.Sprintf("%s-%d-%d", r.cfg.workload, os.Getpid(), round)))
	if err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	sp := tr.start("setup", root, -1)
	st := time.Now()
	d, err := startDaemon(r.cfg.daemon, dir)
	if err != nil {
		return err
	}
	defer d.stop()
	warm := make([]int, len(r.in.warmup))
	for i := range warm {
		warm[i] = i
	}
	for _, rep := range d.sendAll(warm, func(i int) []byte { return r.in.warmup[i] }) {
		if rep.err != nil || rep.status != http.StatusOK {
			return fmt.Errorf("set-up request answered %d: %v %s", rep.status, rep.err, rep.body)
		}
	}
	rs.setup = time.Since(st)
	tr.end(sp)

	before, err := d.cacheCounts()
	if err != nil {
		return err
	}
	cpu0 := procCPUms(d.cmd.Process.Pid)
	byTrace := map[string]int{} // trace ID -> sample index
	first := len(r.samples)
	step := batchLen[r.cfg.workload]
	for lo := 0; lo < len(r.in.order); lo += step {
		batch := r.in.order[lo:min(lo+step, len(r.in.order))]
		b0 := time.Now()
		reps := d.sendAll(batch, func(fi int) []byte { return r.in.forms[fi].body })
		rs.busy += time.Since(b0)
		for _, rep := range reps {
			s := r.decodeReply(len(r.rounds), rep)
			// Request spans are filed from each reply's own timestamps;
			// recording them inside the clients would put a lock on the
			// timed path.
			tr.add("http.compile", root, len(r.samples), rep.start, rep.start.Add(rep.lat))
			if s.traceID != "" {
				byTrace[s.traceID] = len(r.samples)
			}
			r.samples = append(r.samples, s)
		}
		r.refSample(&rs, root)
	}
	rs.cpuMs = procCPUms(d.cmd.Process.Pid) - cpu0
	after, err := d.cacheCounts()
	if err != nil {
		return err
	}
	rs.cache = after.minus(before)
	// The responses' cacheTier fields must tell the same story as the
	// daemon's counters.
	var tiers cacheCounts
	for _, s := range r.samples[first:] {
		switch s.tier {
		case "mem":
			tiers.mem++
		case "disk":
			tiers.disk++
		case "":
			if s.answer >= 0 {
				tiers.miss++
			}
		}
	}
	if tiers != rs.cache {
		r.problems = append(r.problems, fmt.Errorf("responses report cache tiers %+v, /metricsz counted %+v", tiers, rs.cache))
	}
	if err := r.joinDebugz(d, byTrace); err != nil {
		return err
	}
	rs.rssMB = procMB(strconv.Itoa(d.cmd.Process.Pid), "VmHWM")
	d.stop()
	if rs.traced {
		if rs.replay, err = r.replayCache(dir, root); err != nil {
			return err
		}
	}
	tr.end(root)
	r.rounds = append(r.rounds, rs)
	return nil
}

func (r *run) decodeReply(round int, rep reply) sample {
	s := sample{round: round, form: rep.form, lat: rep.lat, status: rep.status, answer: -1, respBytes: len(rep.body)}
	if rep.err != nil {
		logf("request failed: %v", rep.err)
		return s
	}
	if rep.status != http.StatusOK {
		logf("request answered %d: %s", rep.status, rep.body)
		return s
	}
	var resp serve.CompileResponse
	if err := json.Unmarshal(rep.body, &resp); err != nil {
		logf("undecodable answer: %v", err)
		s.status = 0
		return s
	}
	s.degraded, s.serverMs, s.compileMs, s.tier, s.traceID = resp.Degraded, resp.ElapsedMs, resp.ElapsedMs, resp.CacheTier, resp.TraceID
	h := sha256.Sum256([]byte(resp.QASM))
	key := fmt.Sprint(rep.form, h, resp.Depth, resp.CXCount, resp.Initial, resp.Final)
	s.answer = r.addAnswer(key, func() *answer {
		return &answer{form: rep.form, qasm: resp.QASM, initial: resp.Initial, final: resp.Final,
			depth: resp.Depth, cx: resp.CXCount, device: resp.Device}
	})
	return s
}

// joinDebugz attaches each request's flight-recorder entry: queue wait
// and the compile's Timeline phases.
func (r *run) joinDebugz(d *daemon, byTrace map[string]int) error {
	b, err := d.get(fmt.Sprintf("/debugz?n=%d", len(byTrace)+len(r.in.warmup)))
	if err != nil {
		return err
	}
	var dz struct {
		Recent []telemetry.JobRecord `json:"recent"`
	}
	if err := json.Unmarshal(b, &dz); err != nil {
		return fmt.Errorf("debugz: %w", err)
	}
	found := 0
	for _, rec := range dz.Recent {
		i, ok := byTrace[rec.TraceID]
		if !ok {
			continue
		}
		found++
		s := &r.samples[i]
		s.queueMs = rec.QueueMs
		s.phases = map[string]float64{}
		for _, p := range rec.Phases {
			s.phases[p.Name] += p.Ms
		}
	}
	if found != len(byTrace) {
		r.problems = append(r.problems, fmt.Errorf("debugz held %d of %d requests", found, len(byTrace)))
	}
	return nil
}

// cacheCounts are the daemon's /metricsz cache counters.
type cacheCounts struct{ mem, disk, miss float64 }

func (c cacheCounts) minus(o cacheCounts) cacheCounts {
	return cacheCounts{c.mem - o.mem, c.disk - o.disk, c.miss - o.miss}
}

func (d *daemon) cacheCounts() (cacheCounts, error) {
	b, err := d.get("/metricsz")
	if err != nil {
		return cacheCounts{}, err
	}
	var c cacheCounts
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		switch name {
		case `cache_hits{tier="mem"}`:
			c.mem = v
		case `cache_hits{tier="disk"}`:
			c.disk = v
		case "cache_misses":
			c.miss = v
		}
	}
	return c, sc.Err()
}

// procMB reads a kB field of /proc/<pid>/status as MB (0 when absent).
func procMB(pid, field string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// procCPUms is a process's user+system CPU time from /proc/<pid>/stat, in
// ms (Linux's USER_HZ is 100).
func procCPUms(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name may hold spaces; fields restart after its ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	stime, _ := strconv.ParseFloat(f[12], 64)
	return (ut + stime) * 10
}
