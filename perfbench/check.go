package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	ataqc "github.com/ata-pattern/ataqc"
	"github.com/ata-pattern/ataqc/internal/circuit"
	"github.com/ata-pattern/ataqc/internal/verify"
)

// answer is one distinct circuit the program returned for a form. Every
// sample points at its answer, so a circuit served a thousand times is
// checked once and a failed check fails every sample that received it.
type answer struct {
	form           int
	qasm           string
	initial, final []int
	depth, cx      int
	device         string
	err            error   // verdict of the outside check
	strictMs       float64 // time verify.Strict took on the refolded circuit
}

// addAnswer returns the index of the answer with this content, adding it
// when new. key must identify the circuit (its QASM hash, or the mappings
// and metrics of an in-process result).
func (r *run) addAnswer(key string, mk func() *answer) int {
	if i, ok := r.answerIdx[key]; ok {
		return i
	}
	a := mk()
	r.answers = append(r.answers, a)
	r.answerIdx[key] = len(r.answers) - 1
	return len(r.answers) - 1
}

// checkAnswers is the outside correctness check, run after the timed
// phase. For every distinct answer it parses the QASM the caller received,
// folds the decomposed basis back into ZZ/SWAP/ZZSwap gates, and runs
// verify.Strict against the request's own problem, device and returned
// mappings; then it checks the Theorem 6.1 floor against a pure-ATA
// compile, that relabelled variants match their original, and that one
// input never got two different circuits.
func (r *run) checkAnswers() {
	for i, a := range r.answers {
		id := r.tr.start("check.strict", 0, -1)
		a.err = orErr(a.err, r.checkCircuit(a))
		r.tr.end(id)
		if a.err != nil {
			logf("answer %d (form %d): %v", i, a.form, a.err)
		}
	}
	byForm := make([]int, len(r.in.forms))
	for i := range byForm {
		byForm[i] = -1
	}
	for i, a := range r.answers {
		if prev := byForm[a.form]; prev >= 0 {
			err := fmt.Errorf("form %d got two different circuits", a.form)
			r.answers[prev].err, a.err = orErr(r.answers[prev].err, err), orErr(a.err, err)
			continue
		}
		byForm[a.form] = i
	}
	for pi := range r.in.problems {
		orig := byForm[pi] // originals are forms 0..len(problems)-1
		floor, err := r.ataFloor(pi)
		for fi, f := range r.in.forms {
			ai := byForm[fi]
			if f.problem != pi || ai < 0 {
				continue
			}
			a := r.answers[ai]
			switch {
			case err != nil:
				a.err = orErr(a.err, fmt.Errorf("ata floor compile: %v", err))
			case a.depth > floor.Depth() && a.cx > floor.CXCount():
				a.err = orErr(a.err, fmt.Errorf("Theorem 6.1 floor: depth %d and CX %d both exceed pure ATA's %d and %d",
					a.depth, a.cx, floor.Depth(), floor.CXCount()))
			}
			if orig >= 0 && ai != orig {
				o := r.answers[orig]
				if a.depth != o.depth || a.cx != o.cx {
					a.err = orErr(a.err, fmt.Errorf("variant depth/CX %d/%d differ from original %d/%d", a.depth, a.cx, o.depth, o.cx))
				}
			}
		}
	}
}

func orErr(have, add error) error {
	if have != nil {
		return have
	}
	return add
}

func (r *run) ataFloor(pi int) (*ataqc.Result, error) {
	p := r.in.problems[pi]
	dev, err := deviceFor(p.arch, p.n)
	if err != nil {
		return nil, err
	}
	return ataqc.CompileContext(context.Background(), dev, publicProblem(p.g),
		ataqc.Options{Strategy: ataqc.StrategyATA, Workers: 1})
}

func (r *run) checkCircuit(a *answer) error {
	f := r.in.forms[a.form]
	p := r.in.problems[f.problem]
	dec, err := circuit.ParseQASM(strings.NewReader(a.qasm))
	if err != nil {
		return fmt.Errorf("QASM does not parse: %v", err)
	}
	c, err := refold(dec)
	if err != nil {
		return err
	}
	ar, err := archFor(p.arch, p.n)
	if err != nil {
		return err
	}
	if a.device != "" && a.device != ar.Name {
		return fmt.Errorf("served device %s, expected %s", a.device, ar.Name)
	}
	cx := 0
	for _, g := range dec.Gates {
		if g.Kind == circuit.GateCNOT {
			cx++
		}
	}
	if cx != a.cx {
		return fmt.Errorf("QASM has %d CX, response claims %d", cx, a.cx)
	}
	pass := &verify.Pass{Circuit: c, Arch: ar, Problem: f.g, Initial: a.initial, Final: a.final,
		ReportedDepth: a.depth, CheckDepth: true, Angle: 1}
	t0 := time.Now()
	diags, st := verify.RunStatus(pass, verify.Strict...)
	a.strictMs = ms(time.Since(t0))
	for _, s := range st {
		if s.Skipped {
			return fmt.Errorf("analyzer %s skipped: %s", s.Name, s.Reason)
		}
	}
	if err := verify.AsError(diags); err != nil {
		return err
	}
	return nil
}

// refold inverts circuit.Decompose's three fixed templates, so the
// structural analyzers (coverage, perm-soundness) see the ZZ and SWAP
// gates the decomposed QASM basis hides. A CX that starts no template
// fails the check: the compiler never emits a bare CX.
func refold(d *circuit.Circuit) (*circuit.Circuit, error) {
	out := circuit.New(d.NQubits)
	gs := d.Gates
	cx := func(i, a, b int) bool {
		return i < len(gs) && gs[i].Kind == circuit.GateCNOT && gs[i].Q0 == a && gs[i].Q1 == b
	}
	rz := func(i, q int) bool { return i < len(gs) && gs[i].Kind == circuit.GateRZ && gs[i].Q0 == q }
	for i := 0; i < len(gs); {
		g := gs[i]
		if g.Kind != circuit.GateCNOT {
			out.Append(g)
			i++
			continue
		}
		a, b := g.Q0, g.Q1
		switch {
		case rz(i+1, b) && cx(i+2, a, b):
			out.Append(circuit.Gate{Kind: circuit.GateZZ, Q0: a, Q1: b, Angle: gs[i+1].Angle})
			i += 3
		case rz(i+1, b) && cx(i+2, b, a) && cx(i+3, a, b):
			out.Append(circuit.Gate{Kind: circuit.GateZZSwap, Q0: a, Q1: b, Angle: gs[i+1].Angle})
			i += 4
		case cx(i+1, b, a) && cx(i+2, a, b):
			out.Append(circuit.Gate{Kind: circuit.GateSwap, Q0: a, Q1: b})
			i += 3
		default:
			return nil, fmt.Errorf("QASM gate %d: cx(%d,%d) starts no ZZ/SWAP/ZZSwap template", i, a, b)
		}
	}
	return out, nil
}
