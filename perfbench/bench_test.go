package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ata-pattern/ataqc/perfbench/hostref"
)

// The self-test runs every workload at the tiny size. Run it from this
// directory with: go test ./...

type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

var daemonBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic("perfbench: temp dir: " + err.Error())
	}
	daemonBin = filepath.Join(dir, "ataqcd")
	out, err := exec.Command("go", "build", "-o", daemonBin, "github.com/ata-pattern/ataqc/cmd/ataqcd").CombinedOutput()
	if err != nil {
		panic("perfbench: building ataqcd: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func tinyRun(t *testing.T, workload string, seed int64, trace bool) *result {
	t.Helper()
	res, _, err := execute(config{workload: workload, seed: seed, seconds: 0.3, trace: trace,
		daemon: daemonBin, workdir: t.TempDir(), tiny: true})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", workload, trace, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// TestMetricsMatchSpec: every workload prints exactly the metrics
// BENCHMARK.json names, with the same units, untraced and traced.
func TestMetricsMatchSpec(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workload {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			got := tinyRun(t, w.Name, 1, trace).Metrics
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(got), len(want))
			}
			for _, m := range want {
				if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, m.Name, g, m.Unit)
				}
			}
		}
	}
}

// TestTotalsRepeat: the circuit-quality totals and ok_ratio depend on the
// seed alone: equal for equal seeds, different for another seed.
func TestTotalsRepeat(t *testing.T) {
	for _, w := range loadSpec(t).Workload {
		a, b, c := tinyRun(t, w.Name, 5, false), tinyRun(t, w.Name, 5, false), tinyRun(t, w.Name, 6, false)
		for _, m := range []string{"depth_total", "cx_total", "ok_ratio"} {
			if a.Metrics[m] != b.Metrics[m] {
				t.Errorf("%s: %s %v then %v under one seed", w.Name, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
		}
		if a.Metrics["depth_total"] == c.Metrics["depth_total"] && a.Metrics["cx_total"] == c.Metrics["cx_total"] {
			t.Errorf("%s: seeds 5 and 6 gave the same totals", w.Name)
		}
	}
}

// TestOutsideCheckCatchesMutations: dropping or moving one gate of a
// served circuit fails the outside check.
func TestOutsideCheckCatchesMutations(t *testing.T) {
	in, err := makeInputs("compile-dense", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	r := &run{cfg: config{workload: "compile-dense", seconds: 0.01, tiny: true}, in: in,
		ref: hostref.New(), answerIdx: map[string]int{}}
	if err := r.compileDense(); err != nil {
		t.Fatal(err)
	}
	a := r.answers[0]
	if err := r.checkCircuit(a); err != nil {
		t.Fatalf("unmutated circuit fails: %v", err)
	}
	lines := strings.Split(a.qasm, "\n")
	for i, l := range lines {
		if !strings.HasPrefix(l, "rz(") {
			continue
		}
		mut := *a
		mut.qasm = strings.Join(append(append([]string{}, lines[:i]...), lines[i+1:]...), "\n")
		if r.checkCircuit(&mut) == nil {
			t.Errorf("dropping line %d (%s) passed the check", i, l)
		}
		mut.final = append([]int(nil), a.final...)
		mut.final[0], mut.final[1] = mut.final[1], mut.final[0]
		mut.qasm = a.qasm
		if r.checkCircuit(&mut) == nil {
			t.Error("a wrong final mapping passed the check")
		}
		return
	}
	t.Fatal("no rz gate in the circuit")
}

// TestHostRefIsStdlibOnly: the reference kernel must not speed up or
// slow down with the program, so it may import no repository package.
func TestHostRefIsStdlibOnly(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "./hostref").Output()
	if err != nil {
		t.Fatal(err)
	}
	for _, dep := range strings.Fields(string(out)) {
		if strings.HasPrefix(dep, "github.com/ata-pattern/ataqc") && dep != "github.com/ata-pattern/ataqc/perfbench/hostref" {
			t.Errorf("hostref depends on %s", dep)
		}
	}
}

func TestHostRefAllocatesNothing(t *testing.T) {
	k := hostref.New()
	if n := testing.AllocsPerRun(5, func() { k.Run() }); n != 0 {
		t.Errorf("Run allocates %v times", n)
	}
}
