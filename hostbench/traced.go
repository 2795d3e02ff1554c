package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"parms"
	"parms/internal/kernel"
	"parms/internal/obs"
	"parms/internal/vtime"
)

// programRun is what one Options.Trace run of the program reports,
// for the replay-fidelity checks and the obs and vtime metrics.
type programRun struct {
	work                vtime.Work // compute_*_total registry counters
	spans, flows        int64
	p2pBytes, collBytes int64
	bytesSent           int64
	times               parms.StageTimes
}

func readProgramRun(res *parms.Result) programRun {
	reg := res.Metrics
	prog := programRun{
		work: vtime.Work{
			CellsVisited:  reg.CounterValue("compute_cells_total"),
			PathSteps:     reg.CounterValue("compute_path_steps_total"),
			SweepWrites:   reg.CounterValue("compute_sweep_writes_total"),
			Cancellations: reg.CounterValue("compute_cancellations_total"),
		},
		bytesSent: res.BytesSent,
		times:     res.Times,
	}
	for id := 0; id < res.Trace.Procs(); id++ {
		prog.spans += int64(len(res.Trace.Spans(id)))
	}
	for _, f := range res.Trace.Flows().Flows() {
		prog.flows++
		if f.Kind == obs.FlowCollective {
			prog.collBytes += int64(f.Bytes)
		} else {
			prog.p2pBytes += int64(f.Bytes)
		}
	}
	return prog
}

// fidelity checks that a replay did the program's work: the same
// output bytes, the same compute-stage work counters, and an exchange
// that sent exactly the program's point-to-point bytes. Result.BytesSent
// also counts the collectives sent before the pipeline totals it, so it
// must lie between the point-to-point bytes and those plus all of the
// run's collective bytes.
func fidelity(rr *replayResult, ex exchangeStats, prog programRun, digest string) error {
	if rr.digest != digest {
		return fmt.Errorf("replay output %s differs from the program's %s", rr.digest, digest)
	}
	got := rr.stats.computeWork
	if got.CellsVisited != prog.work.CellsVisited || got.PathSteps != prog.work.PathSteps ||
		got.SweepWrites != prog.work.SweepWrites || got.Cancellations != prog.work.Cancellations {
		return fmt.Errorf("replay work cells/steps/sweep writes/cancellations %d/%d/%d/%d, program %d/%d/%d/%d",
			got.CellsVisited, got.PathSteps, got.SweepWrites, got.Cancellations,
			prog.work.CellsVisited, prog.work.PathSteps, prog.work.SweepWrites, prog.work.Cancellations)
	}
	if ex.bytes != prog.p2pBytes || prog.bytesSent < ex.bytes || prog.bytesSent > ex.bytes+prog.collBytes {
		return fmt.Errorf("exchange sent %d bytes; program sent %d point-to-point and %d collective, Result.BytesSent %d",
			ex.bytes, prog.p2pBytes, prog.collBytes, prog.bytesSent)
	}
	return nil
}

// runtimeSample reads the GC counters the runtime layer reports.
type runtimeSample struct{ cycles, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		cycles:   float64(s[0].Value.Uint64()),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
	}
}

// runTraced measures the per-layer metrics. After one untraced warm-up
// call and one Options.Trace call (the reference for the fidelity
// checks), it repeats, at least once and then while the next repetition
// taking as long as the last ends within cfg.seconds: a replay of the
// layer calls (plus, where the pool is wider than one, a second replay
// at width 1), one exchange of the replay's merge payloads, and one
// untraced and one traced Compute call for the tracing overhead and the
// runtime's GC counters. Per-layer values are medians over the
// repetitions; the first replay's spans are written as Chrome trace
// JSON.
func runTraced(w workload, cfg config, out io.Writer) (report, error) {
	var rep report
	v := &verifier{w: w, seed: cfg.seed}
	fail := func(what string, err error) {
		rep.failed++
		fmt.Fprintf(out, "# FAIL %s: %v\n", what, err)
	}
	verify := func(res *parms.Result, err error, what string) bool {
		rep.attempted++
		if err := v.check(res, err); err != nil {
			fail(what, err)
			return false
		}
		return true
	}

	vol := w.volume(cfg.seed)
	res, err := parms.Compute(vol, w.options(false))
	if !verify(res, err, "warm-up call") {
		return rep, nil
	}
	digest := v.ref.digest
	res, err = parms.Compute(vol, w.options(true))
	if !verify(res, err, "traced call") {
		return rep, nil
	}
	prog := readProgramRun(res)
	res = nil

	width := w.poolWidth()
	var pool *kernel.Pool
	if width > 1 {
		pool = kernel.New(width)
	}
	samples := map[string][]float64{}
	var untraced, traced []float64
	var rt runtimeSample // GC counters summed over the untraced calls
	var first *replayResult
	var layers []layerCost
	start := time.Now()
	var iter time.Duration // the last repetition's length
	for len(untraced) == 0 || time.Since(start)+iter <= time.Duration(cfg.seconds*float64(time.Second)) {
		iterStart := time.Now()
		runtime.GC()
		rr, err := replay(w, vol, pool)
		rep.attempted++
		if err != nil {
			fail("replay", err)
			break
		}
		speedup := 1.0
		if width > 1 {
			runtime.GC() // as before the first replay
			seq, err := replay(w, vol, nil)
			if err == nil && seq.digest != rr.digest {
				err = fmt.Errorf("output %s at width 1, %s at width %d", seq.digest, rr.digest, width)
			}
			if err != nil {
				fail("width-1 replay", err)
				break
			}
			speedup = kernelSeconds(seq) / kernelSeconds(rr)
		}
		ex, err := exchange(w.procs, rr.stats.blocks, rr.stats.payloads)
		if err == nil {
			err = fidelity(rr, ex, prog, digest)
		}
		if err != nil {
			fail("replay fidelity", err)
			break
		}
		vals := layerMetrics(rr, ex, prog)
		vals["kernel.speedup"] = speedup
		for _, m := range layerMetricList {
			if x, ok := vals[m.name]; ok {
				samples[m.name] = append(samples[m.name], x)
			}
		}
		layers = modelVsHost(rr, ex)
		if first == nil {
			first = rr
		}
		rr.stats.payloads = nil

		r0 := readRuntime()
		res, c, err := timedCompute(vol, w.options(false))
		r1 := readRuntime()
		rt.cycles += r1.cycles - r0.cycles
		rt.gcCPU += r1.gcCPU - r0.gcCPU
		rt.totalCPU += r1.totalCPU - r0.totalCPU
		verify(res, err, "untraced call")
		untraced = append(untraced, c.seconds)
		res, c, err = timedCompute(vol, w.options(true))
		verify(res, err, "traced call")
		traced = append(traced, c.seconds)
		res = nil
		iter = time.Since(iterStart)
	}
	if first == nil {
		return rep, nil
	}

	path := traceFile(cfg.traceDir, w, cfg.seed)
	f, err := os.Create(path)
	if err != nil {
		return rep, err
	}
	err = first.rec.writeChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return rep, err
	}
	fmt.Fprintf(out, "# replay spans: %d, written to %s\n", len(first.rec.spans), path)
	writeModelVsHost(out, layers)

	for _, m := range layerMetricList {
		xs := samples[m.name]
		switch m.name {
		case "kernel.width":
			xs = []float64{float64(width)}
		case "obs.trace_overhead_frac":
			xs = []float64{median(traced)/median(untraced) - 1}
		case "runtime.gc_cycles":
			xs = []float64{rt.cycles / float64(len(untraced))}
		case "runtime.gc_cpu_frac":
			xs = []float64{ratio(rt.gcCPU, rt.totalCPU)}
		}
		if len(xs) > 1 {
			rep.addSamples(m.name, xs, m.unit)
		} else if len(xs) == 1 {
			rep.add(m.name, xs[0], m.unit)
		} else {
			return rep, fmt.Errorf("metric %s was not measured", m.name)
		}
	}
	fmt.Fprintf(out, "# replays %d, untraced/traced call pairs %d\n", len(samples["replay.total_s"]), len(untraced))
	return rep, nil
}

// kernelSeconds is the self time of a replay's gradient and trace calls,
// the ones that run on the kernel pool.
func kernelSeconds(rr *replayResult) float64 {
	self := rr.rec.selfByName()
	return self["gradient"] + self["mscomplex.trace"]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
