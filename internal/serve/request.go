package serve

import (
	"encoding/json"
	"io"
	"strings"
	"time"

	ataqc "github.com/ata-pattern/ataqc"
)

// CompileRequest is the JSON body of POST /compile: an interaction graph,
// a target architecture, and compile options. Unknown fields are rejected
// so client typos fail loudly instead of silently compiling defaults.
type CompileRequest struct {
	// Arch names the architecture family: line, grid, sycamore, heavy-hex,
	// hexagon, mumbai, or custom (which requires Couplings).
	Arch string `json:"arch"`
	// N is the device size in qubits; 0 derives it from the largest vertex
	// id in Edges (mumbai ignores it, custom requires it).
	N int `json:"n,omitempty"`
	// Couplings lists the physical coupling pairs of a custom device.
	Couplings [][2]int `json:"couplings,omitempty"`
	// Edges is the problem's interaction list: one [u, v] pair per
	// permutable two-qubit operator, 0-based logical qubit ids.
	Edges [][2]int `json:"edges"`
	// Strategy defaults to hybrid.
	Strategy string `json:"strategy,omitempty"`
	// Noise attaches a synthetic calibration (seeded by NoiseSeed) and
	// compiles noise-aware.
	Noise     bool  `json:"noise,omitempty"`
	NoiseSeed int64 `json:"noiseSeed,omitempty"`
	// Alpha weighs depth vs fidelity in the selector (0 = default 0.5).
	Alpha float64 `json:"alpha,omitempty"`
	// TimeoutMs caps the compile's wall-clock budget in milliseconds. The
	// server clamps it to its own per-request ceiling and may tighten it
	// further under queue pressure; 0 means "server default".
	TimeoutMs int `json:"timeoutMs,omitempty"`
	// MaxNodes is the deterministic work budget (0 = server default, which
	// is unbounded at low pressure).
	MaxNodes int `json:"maxNodes,omitempty"`
	// Workers bounds the hybrid prediction concurrency inside this one
	// compile (0 = one prediction worker; the serving-level parallelism is
	// the worker pool, so per-compile fan-out defaults off).
	Workers int `json:"workers,omitempty"`
	// IncludeQASM returns the compiled circuit as OpenQASM 2.0 text.
	IncludeQASM bool `json:"includeQasm,omitempty"`
	// Chaos triggers a server-side fault for robustness testing: "panic"
	// panics inside the compile, "sleep:<duration>" stalls the worker slot.
	// Honored only when the daemon runs with chaos hooks enabled; otherwise
	// it is an invalid_request.
	Chaos string `json:"chaos,omitempty"`
}

// CompileResponse is the JSON body of a successful compile.
type CompileResponse struct {
	// TraceID echoes the request's X-Ataqc-Trace-Id header so the ID
	// survives clients that drop response headers.
	TraceID       string  `json:"traceId"`
	Device        string  `json:"device"`
	DeviceQubits  int     `json:"deviceQubits"`
	Qubits        int     `json:"qubits"`
	Interactions  int     `json:"interactions"`
	Strategy      string  `json:"strategy"`
	Depth         int     `json:"depth"`
	CXCount       int     `json:"cxCount"`
	Swaps         int     `json:"swaps"`
	Fidelity      float64 `json:"estimatedFidelity,omitempty"`
	Initial       []int   `json:"initial"`
	Final         []int   `json:"final"`
	Degraded      bool    `json:"degraded,omitempty"`
	DegradeBudget string  `json:"degradeBudget,omitempty"`
	DegradeRung   string  `json:"degradeRung,omitempty"`
	// Pressure is the admission-control level the request was compiled
	// under (0 = relaxed; higher levels tighten the compile budget).
	Pressure  int     `json:"pressure"`
	ElapsedMs float64 `json:"elapsedMs"`
	// CacheTier names the compilation-cache tier that served this result
	// ("mem" or "disk"); empty for a fresh compile or a cacheless daemon.
	CacheTier string `json:"cacheTier,omitempty"`
	QASM      string `json:"qasm,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx answer. Like successes
// it carries the request's trace ID: error paths are exactly where the ID
// is needed to find the matching log line and flight-recorder entry.
type ErrorResponse struct {
	TraceID string   `json:"traceId,omitempty"`
	Error   apiError `json:"error"`
}

// Request limits below are admission-control constants: they bound the
// resources a single hostile request can claim before a compile starts.
const (
	// DefaultMaxBodyBytes caps the request body (1 MiB holds ~60k edges).
	DefaultMaxBodyBytes = 1 << 20
	// DefaultMaxQubits caps the device/problem size per request.
	DefaultMaxQubits = 1024
	// maxWorkersPerCompile caps the per-compile prediction fan-out so one
	// request cannot multiply itself across every core.
	maxWorkersPerCompile = 16
)

var strategies = map[string]ataqc.Strategy{
	"":            ataqc.StrategyHybrid,
	"hybrid":      ataqc.StrategyHybrid,
	"greedy":      ataqc.StrategyGreedy,
	"ata":         ataqc.StrategyATA,
	"2qan":        ataqc.Strategy2QAN,
	"qaim":        ataqc.StrategyQAIM,
	"paulihedral": ataqc.StrategyPaulihedral,
}

// parseRequest decodes and validates a compile request, returning the
// constructed device, problem, and options. Every rejection is an apiError
// so the handler can write it structurally.
func parseRequest(r io.Reader, maxQubits int) (*CompileRequest, *ataqc.Device, *ataqc.Problem, ataqc.Options, error) {
	var req CompileRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, nil, nil, ataqc.Options{}, decodeError(err)
	}
	if dec.More() {
		return nil, nil, nil, ataqc.Options{}, errInvalid("trailing data after the request object")
	}
	dev, prob, opts, err := req.build(maxQubits)
	return &req, dev, prob, opts, err
}

// decodeError maps JSON decoding failures, keeping the "body too large"
// class distinct (http.MaxBytesReader surfaces it mid-read).
func decodeError(err error) *apiError {
	if strings.Contains(err.Error(), "request body too large") {
		return &apiError{Status: 413, Code: CodePayloadTooLarge, Message: err.Error()}
	}
	return errInvalid("bad request body: %v", err)
}

// build validates the request and constructs the compile inputs.
func (req *CompileRequest) build(maxQubits int) (*ataqc.Device, *ataqc.Problem, ataqc.Options, error) {
	var opts ataqc.Options
	strategy, ok := strategies[req.Strategy]
	if !ok {
		return nil, nil, opts, errInvalid("unknown strategy %q", req.Strategy)
	}
	if len(req.Edges) == 0 {
		return nil, nil, opts, errInvalid("empty problem: at least one edge is required")
	}
	if req.Alpha < 0 || req.Alpha > 1 {
		return nil, nil, opts, errInvalid("alpha %g out of range [0,1]", req.Alpha)
	}
	if req.TimeoutMs < 0 {
		return nil, nil, opts, errInvalid("timeoutMs must be non-negative")
	}
	if req.MaxNodes < 0 {
		return nil, nil, opts, errInvalid("maxNodes must be non-negative")
	}
	if req.Workers < 0 || req.Workers > maxWorkersPerCompile {
		return nil, nil, opts, errInvalid("workers %d out of range [0,%d]", req.Workers, maxWorkersPerCompile)
	}

	// Problem first: the largest vertex id sizes the device when N is 0.
	maxV := -1
	for i, e := range req.Edges {
		u, v := e[0], e[1]
		if u < 0 || v < 0 || u == v {
			return nil, nil, opts, errInvalid("edge %d: invalid pair (%d,%d)", i, u, v)
		}
		if u >= maxQubits || v >= maxQubits {
			return nil, nil, opts, errInvalid("edge %d: vertex id exceeds the %d-qubit service limit", i, maxQubits)
		}
		if u > maxV {
			maxV = u
		}
		if v > maxV {
			maxV = v
		}
	}
	n := req.N
	if n == 0 {
		n = maxV + 1
	}
	if n < 2 || n > maxQubits {
		return nil, nil, opts, errInvalid("n %d out of range [2,%d]", n, maxQubits)
	}
	if maxV >= n {
		return nil, nil, opts, errInvalid("edge vertex %d exceeds problem size %d", maxV, n)
	}
	prob := ataqc.NewProblem(n)
	for _, e := range req.Edges {
		prob.AddInteraction(e[0], e[1])
	}

	dev, err := req.device(n)
	if err != nil {
		return nil, nil, opts, err
	}
	if prob.Qubits() > dev.Qubits() {
		return nil, nil, opts, errInvalid("problem needs %d qubits but device %s has %d",
			prob.Qubits(), dev.Name(), dev.Qubits())
	}
	if req.Noise {
		dev = dev.WithSyntheticNoise(req.NoiseSeed)
	}
	opts = ataqc.Options{
		Strategy:   strategy,
		NoiseAware: req.Noise,
		Alpha:      req.Alpha,
		Deadline:   time.Duration(req.TimeoutMs) * time.Millisecond,
		MaxNodes:   req.MaxNodes,
		Workers:    req.Workers,
	}
	if opts.Workers == 0 {
		opts.Workers = 1 // concurrency lives in the serving pool, not the compile
	}
	return dev, prob, opts, nil
}

func (req *CompileRequest) device(n int) (*ataqc.Device, error) {
	switch req.Arch {
	case "custom":
		if len(req.Couplings) == 0 {
			return nil, errInvalid("custom architecture requires couplings")
		}
		if req.N == 0 {
			return nil, errInvalid("custom architecture requires n")
		}
		dev, err := ataqc.CustomDevice("custom", req.N, req.Couplings)
		if err != nil {
			return nil, errInvalid("bad custom device: %v", err)
		}
		return dev, nil
	case "":
		return nil, errInvalid("arch is required")
	}
	dev, err := ataqc.DeviceFor(req.Arch, n)
	if err != nil {
		return nil, errInvalid("%v", err)
	}
	return dev, nil
}

// parseChaos validates a chaos directive, returning the sleep duration for
// "sleep:<dur>" (0 for "panic").
func parseChaos(spec string) (time.Duration, error) {
	switch {
	case spec == "panic":
		return 0, nil
	case strings.HasPrefix(spec, "sleep:"):
		d, err := time.ParseDuration(strings.TrimPrefix(spec, "sleep:"))
		if err != nil || d < 0 {
			return 0, errInvalid("bad chaos sleep duration %q", spec)
		}
		if d > 10*time.Second {
			return 0, errInvalid("chaos sleep %v exceeds the 10s cap", d)
		}
		return d, nil
	default:
		return 0, errInvalid("unknown chaos directive %q", spec)
	}
}
