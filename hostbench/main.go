// Command hostbench measures what parms.Compute costs on the host: wall
// time, heap allocation and peak memory per call, on three workloads
// that stress different layers, with every call's output verified. A
// traced mode replays the same workload through the layers' public
// functions, one span per call, for per-layer host time, allocation
// and work counts, and checks that the replay does the program's work.
//
// Usage, from the root of a checkout:
//
//	bash hostbench/run.sh --workload sinusoid-p8 --seed 1 --seconds 20 --trace 0
//
// The load is a closed loop with a single caller: one goroutine calls
// Compute, one call at a time, with GOMAXPROCS left at the core count,
// so the program's own rank goroutines and kernel pool are what is
// measured. The last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics; the lines before it
// are a readable report.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"parms"
	"parms/internal/grid"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	seed     int64
	seconds  float64
	traceDir string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: sinusoid-p8, noise-p64 or torus-p1")
	seed := fs.Int64("seed", defaultSeed, "input seed (noise-p64 draws its volume from it)")
	seconds := fs.Float64("seconds", 10, "how long the timed phase runs")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced replay")
	traceDir := fs.String("trace-dir", ".", "directory the replay's Chrome trace JSON is written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		if err == nil {
			err = errors.New("need --trace 0|1 and --seconds > 0")
		}
		fmt.Fprintln(stderr, "hostbench:", err)
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, traceDir: *traceDir}

	out := bufio.NewWriter(stdout)
	defer out.Flush()
	writeHost(out, w, cfg)
	var rep report
	if *trace == 1 {
		rep, err = runTraced(w, cfg, out)
	} else {
		rep, err = runEndToEnd(w, cfg, out)
	}
	if err != nil {
		out.Flush()
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	rep.write(out)
	if err := rep.writeJSON(out); err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	return 0
}

// metric is one named measurement with its unit; n is the number of
// samples a median was taken over (0: a single measurement or count).
type metric struct {
	name  string
	value float64
	unit  string
	n     int
	note  string
}

// report is the outcome of one run.
type report struct {
	attempted, failed int
	metrics           []metric
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit})
}

// addSamples adds the median of samples, noting the sample count and
// range.
func (r *report) addSamples(name string, samples []float64, unit string) {
	lo, hi := minMax(samples)
	r.metrics = append(r.metrics, metric{
		name: name, value: median(samples), unit: unit, n: len(samples),
		note: fmt.Sprintf("min %.6g max %.6g", lo, hi),
	})
}

func (r *report) write(w io.Writer) {
	fmt.Fprintf(w, "# %-28s %16s %-8s %4s\n", "metric", "median", "unit", "n")
	for _, m := range r.metrics {
		n := "-"
		if m.n > 0 {
			n = fmt.Sprint(m.n)
		}
		fmt.Fprintf(w, "  %-28s %16.6g %-8s %4s  %s\n", m.name, m.value, m.unit, n, m.note)
	}
}

// writeJSON prints the result object as the last line of output.
func (r *report) writeJSON(w io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = value{Value: m.value, Unit: m.unit}
	}
	data, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// writeHost records the host and run settings in the report header.
func writeHost(w io.Writer, wl workload, cfg config) {
	fmt.Fprintf(w, "# hostbench workload=%s procs=%d merge=%v seed=%d seconds=%g\n",
		wl.name, wl.procs, wl.merge, cfg.seed, cfg.seconds)
	fmt.Fprintf(w, "# host nproc=%d GOMAXPROCS=%d go=%s cpu=%q pool_width=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), wl.poolWidth())
}

// cpuModel reads the processor name from /proc/cpuinfo where it exists.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// resetPeakRSS restarts the kernel's record of the process's peak
// resident set size (VmHWM).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set size since the last
// reset, in megabytes.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// call is one measured Compute call.
type call struct {
	seconds          float64
	allocMB, mallocs float64
	peakRSSMB        float64
}

// timedCompute runs one Compute call, timing it, taking its heap
// allocation from the MemStats deltas and its peak resident set from the
// kernel's high-water mark, reset before the call. Every call starts from
// a collected heap whose free pages went back to the OS, so its peak does
// not depend on what earlier calls left resident.
func timedCompute(vol *grid.Volume, opt parms.Options) (*parms.Result, call, error) {
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, call{}, err
	}
	m0 := memSample()
	t0 := time.Now()
	res, err := parms.Compute(vol, opt)
	dt := time.Since(t0).Seconds()
	m1 := memSample()
	c := call{
		seconds: dt,
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		mallocs: float64(m1.Mallocs - m0.Mallocs),
	}
	if err != nil {
		return nil, c, err
	}
	c.peakRSSMB, err = peakRSSMB()
	return res, c, err
}

// setupRuns is how often a run sets up; setup_s is the median.
const setupRuns = 3

// runEndToEnd measures the end-to-end metrics with tracing off: setupRuns
// set-ups (generate the volume, finish one warm-up call), then at least
// three timed calls, and more while the next one, taking as long as the
// last, ends within cfg.seconds.
func runEndToEnd(w workload, cfg config, out io.Writer) (report, error) {
	var rep report
	v := &verifier{w: w, seed: cfg.seed}
	opt := w.options(false)
	verify := func(res *parms.Result, err error, what string) {
		rep.attempted++
		if err := v.check(res, err); err != nil {
			rep.failed++
			fmt.Fprintf(out, "# FAIL %s: %v\n", what, err)
		}
	}

	var vol *grid.Volume
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		vol = nil
		runtime.GC()
		t0 := time.Now()
		vol = w.volume(cfg.seed)
		res, err := parms.Compute(vol, opt)
		setups = append(setups, time.Since(t0).Seconds())
		verify(res, err, fmt.Sprintf("set-up %d", i))
	}

	var calls []call
	var modeled float64
	start := time.Now()
	for len(calls) < 3 || time.Since(start).Seconds()+calls[len(calls)-1].seconds <= cfg.seconds {
		res, c, err := timedCompute(vol, opt)
		calls = append(calls, c)
		verify(res, err, fmt.Sprintf("call %d", len(calls)))
		if err == nil {
			modeled = res.Times.Total
		}
	}

	pick := func(f func(call) float64) []float64 {
		out := make([]float64, len(calls))
		for i, c := range calls {
			out[i] = f(c)
		}
		return out
	}
	rep.addSamples("wall_s", pick(func(c call) float64 { return c.seconds }), "s")
	rep.addSamples("alloc_mb", pick(func(c call) float64 { return c.allocMB }), "MB")
	rep.addSamples("mallocs", pick(func(c call) float64 { return c.mallocs }), "count")
	rep.addSamples("peak_rss_mb", pick(func(c call) float64 { return c.peakRSSMB }), "MB")
	rep.add("modeled_total_s", modeled, "model_s")
	rep.addSamples("setup_s", setups, "s")
	fmt.Fprintf(out, "# error_rate %.6g (%d of %d calls failed; timed calls %d)\n",
		float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted, len(calls))
	return rep, nil
}

// traceFile is where the replay's spans are written.
func traceFile(dir string, w workload, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace.json", w.name, seed))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minMax(xs []float64) (lo, hi float64) {
	for i, x := range xs {
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return lo, hi
}
