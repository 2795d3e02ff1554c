package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"parms/internal/grid"
	"parms/internal/synth"
)

// smallWorkloads mirror the benchmark's workloads at reduced sizes:
// same rank counts and merge settings, smaller volumes.
var smallWorkloads = []workload{
	{name: "sinusoid-small", procs: 8, merge: true,
		volume: func(int64) *grid.Volume { return synth.Sinusoid(24, 3) }},
	{name: "noise-small", procs: 64, merge: true,
		volume: func(seed int64) *grid.Volume { return synth.Random(grid.Dims{20, 20, 20}, seed) }},
	{name: "torus-small", procs: 1,
		volume: func(int64) *grid.Volume { return synth.Torus(24) }},
}

// useSmallWorkloads swaps the workload table for the reduced one for
// the rest of the test.
func useSmallWorkloads(t *testing.T) {
	saved := workloads
	workloads = smallWorkloads
	t.Cleanup(func() { workloads = saved })
}

type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// runCLI runs the command as the benchmark driver would and parses the
// last line of its output.
func runCLI(t *testing.T, args ...string) (result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s\n%s", code, stderr.String(), stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, stdout.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("verification failed: %+v\n%s", res, stdout.String())
	}
	return res, stdout.String()
}

// checkMetrics asserts the result carries exactly the named metrics,
// each with a value and the unit BENCHMARK.json gives it.
func checkMetrics(t *testing.T, res result, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case got.Value == nil:
			t.Errorf("metric %s has no value", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
		}
	}
}

func TestEndToEndMetrics(t *testing.T) {
	useSmallWorkloads(t)
	spec := readSpec(t)
	for _, w := range smallWorkloads {
		res, out := runCLI(t, "--workload", w.name, "--seed", "3", "--seconds", "0.01", "--trace", "0")
		checkMetrics(t, res, spec.EndToEnd)
		// Every set-up and at least three timed calls, all verified.
		if res.Attempted < setupRuns+3 {
			t.Errorf("%s: attempted %d calls, want at least %d", w.name, res.Attempted, setupRuns+3)
		}
		for _, want := range []string{"nproc=", "GOMAXPROCS=", "go=", "cpu=", "seed=3", "pool_width=", "error_rate 0 "} {
			if !strings.Contains(out, want) {
				t.Errorf("%s: report lacks %q:\n%s", w.name, want, out)
			}
		}
	}
}

func TestTracedMetricsAndTrace(t *testing.T) {
	useSmallWorkloads(t)
	spec := readSpec(t)
	dir := t.TempDir()
	for _, w := range smallWorkloads {
		res, out := runCLI(t, "--workload", w.name, "--seed", "2", "--seconds", "0.01", "--trace", "1", "--trace-dir", dir)
		checkMetrics(t, res, spec.PerLayer)
		if !strings.Contains(out, "# model vs host") {
			t.Errorf("%s: no model-vs-host table:\n%s", w.name, out)
		}
		merged := res.Metrics["merge.rounds"].Value
		if w.merge == (*merged == 0) {
			t.Errorf("%s: merge.rounds %v with merge=%v", w.name, *merged, w.merge)
		}
		path := traceFile(dir, w, 2)
		cmd := exec.Command("go", "run", "parms/cmd/tracecheck", path)
		if msg, err := cmd.CombinedOutput(); err != nil || !strings.Contains(string(msg), "ok") {
			t.Errorf("%s: tracecheck rejects %s: %v\n%s", w.name, path, err, msg)
		}
	}
}

func TestGoldenMismatchFails(t *testing.T) {
	useSmallWorkloads(t)
	w := smallWorkloads[2]
	w.golden = &golden{nodes: [4]int{1, 0, 0, 0}, arcs: 0, digest: "00"}
	workloads = []workload{w}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", w.name, "--seconds", "0.01"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	// Every call is checked against the golden, none is retried or dropped.
	if res.Correct || res.Failed != res.Attempted || res.Attempted != setupRuns+3 {
		t.Fatalf("a wrong golden gave %+v", res)
	}
}

func TestSelfTime(t *testing.T) {
	r := newRecorder()
	root := r.begin("root", -1, -1)
	a := r.begin("a", 0, -1)
	time.Sleep(2 * time.Millisecond)
	b := r.begin("b", 0, -1)
	time.Sleep(2 * time.Millisecond)
	r.end(b)
	r.end(a)
	r.end(root)
	self := r.selfSeconds()
	dur := func(i int) float64 { return (r.spans[i].End - r.spans[i].Start).Seconds() }
	if got, want := self[a], dur(a)-dur(b); got != want {
		t.Errorf("self(a) = %g, want %g", got, want)
	}
	if self[b] != dur(b) || self[root] != dur(root)-dur(a) {
		t.Errorf("self times %v for durations %g %g %g", self, dur(root), dur(a), dur(b))
	}
	var buf bytes.Buffer
	if err := r.writeChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if msg, err := exec.Command("go", "run", "parms/cmd/tracecheck", path).CombinedOutput(); err != nil {
		t.Errorf("tracecheck: %v\n%s", err, msg)
	}
}
