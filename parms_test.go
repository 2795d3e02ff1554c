package parms

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"parms/internal/obs"
)

func TestPublicComputeMatchesSerial(t *testing.T) {
	vol := Sinusoid(17, 2)
	serial := ComputeSerial(vol, 0.15)
	wantNodes, _ := serial.AliveCounts()

	res, err := Compute(vol, Options{Procs: 8, FullMerge: true, Persistence: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if res.OutputBlocks != 1 {
		t.Fatalf("output blocks %d", res.OutputBlocks)
	}
	if res.Nodes != wantNodes {
		t.Fatalf("parallel nodes %v, serial %v", res.Nodes, wantNodes)
	}
	ms := res.Merged()
	if ms == nil {
		t.Fatal("no merged complex")
	}
	if ms.EulerCharacteristic() != 1 {
		t.Fatalf("Euler characteristic %d", ms.EulerCharacteristic())
	}
	if res.TotalNodes() != ms.NumAliveNodes() {
		t.Fatalf("TotalNodes %d != complex %d", res.TotalNodes(), ms.NumAliveNodes())
	}
	if res.Describe() == "" {
		t.Fatal("empty description")
	}
}

func TestPublicPartialMerge(t *testing.T) {
	vol := Sinusoid(17, 2)
	res, err := Compute(vol, Options{
		Procs:       8,
		Radices:     PartialMergeRadices(8, 1)[:1],
		Persistence: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OutputBlocks != 1 {
		// Partial(8, 1) is [8]: a full merge for 8 blocks.
		t.Fatalf("output blocks %d", res.OutputBlocks)
	}
}

func TestPublicExtraction(t *testing.T) {
	vol := Sinusoid(17, 2)
	ms := ComputeSerial(vol, 0.1)
	sg := Extract(ms, FilterAnd(ByEndpointIndices(2, 3), ByMinValue(0)))
	if sg.Arcs == 0 {
		t.Fatal("no ridge arcs extracted")
	}
	if CountNodes(ms, 3, -2) == 0 {
		t.Fatal("no maxima")
	}
	if len(PersistenceCurve(ms)) < 2 {
		t.Fatal("degenerate persistence curve")
	}
	if ArcLengths(ms).Count == 0 {
		t.Fatal("no arc lengths")
	}
}

func TestFullMergeRadicesGuideline(t *testing.T) {
	got := FullMergeRadices(2048)
	want := []int{4, 8, 8, 8}
	if len(got) != len(want) {
		t.Fatalf("radices %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("radices %v, want %v", got, want)
		}
	}
}

func TestEfficiencyExported(t *testing.T) {
	if e := Efficiency(970, 32, 29, 8192); e < 0.12 || e > 0.14 {
		t.Fatalf("efficiency %v", e)
	}
}

func TestComputeInSituMatchesCompute(t *testing.T) {
	vol := Sinusoid(17, 2)
	lo, hi := vol.Range()

	direct, err := Compute(vol, Options{Procs: 4, FullMerge: true, Persistence: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	insitu, err := ComputeInSitu(vol.Dims, func(blkLo, blkHi [3]int) *Volume {
		return vol.SubVolume(blkLo, blkHi)
	}, lo, hi, Options{Procs: 4, FullMerge: true, Persistence: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Nodes != insitu.Nodes || direct.Arcs != insitu.Arcs {
		t.Fatalf("in-situ %v/%d, direct %v/%d", insitu.Nodes, insitu.Arcs, direct.Nodes, direct.Arcs)
	}
	if insitu.Times.Read > direct.Times.Read {
		t.Errorf("in-situ read stage (%v) not cheaper than file read (%v)",
			insitu.Times.Read, direct.Times.Read)
	}
}

func TestSimplifyPublicMonotone(t *testing.T) {
	vol := Sinusoid(17, 2)
	lo, hi := vol.Range()
	ms := ComputeSerial(vol, 0.05)
	n1 := ms.NumAliveNodes()
	Simplify(ms, 0.3, lo, hi)
	n2 := ms.NumAliveNodes()
	if n2 > n1 {
		t.Fatalf("simplification grew the complex: %d -> %d", n1, n2)
	}
	if n2 == n1 {
		t.Fatalf("raising the threshold to 30%% cancelled nothing (%d nodes)", n1)
	}
}

func TestMultiResolutionPublic(t *testing.T) {
	vol := Sinusoid(17, 2)
	ms := ComputeSerial(vol, 0.3)
	max := ms.MaxResolution()
	if max == 0 {
		t.Fatal("no hierarchy recorded")
	}
	coarse := ms.NumAliveNodes()
	ms.SetResolution(0)
	fine := ms.NumAliveNodes()
	if fine != coarse+2*max {
		t.Fatalf("finest level has %d nodes, want %d", fine, coarse+2*max)
	}
	ms.SetResolution(max)
	if ms.NumAliveNodes() != coarse {
		t.Fatal("navigation did not return to the coarse level")
	}
	if len(Diagram(ms, vol.Dims)) != max {
		t.Fatalf("diagram has %d pairs, want %d", len(Diagram(ms, vol.Dims)), max)
	}
}

func TestChaosPublicFaultInjection(t *testing.T) {
	vol := Sinusoid(17, 2)
	clean, err := Compute(vol, Options{Procs: 8, FullMerge: true, Persistence: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	plan := NewFaultPlan(1).
		CrashRank(2, "compute").
		CorruptMessage(3, 0, 1).
		FailWrite("volume.raw.msc", 1)
	res, err := Compute(vol, Options{
		Procs: 8, FullMerge: true, Persistence: 0.15,
		Faults: plan, RecvGrace: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.FaultReport
	if !rep.Faulty() {
		t.Fatal("fault report empty under injection")
	}
	if rep.RankCrashes != 1 || rep.Corruptions != 1 || rep.IORetries < 1 {
		t.Errorf("report %v; want 1 crash, 1 corruption, >=1 I/O retry", &rep)
	}
	if len(rep.RecoveredBlocks) != len(rep.LostBlocks) || len(rep.LostBlocks) == 0 {
		t.Errorf("lost %v recovered %v", rep.LostBlocks, rep.RecoveredBlocks)
	}
	if res.Nodes != clean.Nodes {
		t.Errorf("faulty nodes %v, fault-free %v", res.Nodes, clean.Nodes)
	}
	if res.Merged() == nil {
		t.Fatal("no merged complex after recovery")
	}
}

func TestPublicTraceKnob(t *testing.T) {
	vol := Sinusoid(17, 2)
	plain, err := Compute(vol, Options{Procs: 8, FullMerge: true, Persistence: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil || plain.Metrics != nil {
		t.Fatal("untraced run carries Trace/Metrics")
	}

	res, err := Compute(vol, Options{Procs: 8, FullMerge: true, Persistence: 0.15, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Metrics == nil {
		t.Fatal("traced run missing Trace or Metrics")
	}
	if res.Nodes != plain.Nodes {
		t.Errorf("tracing changed the result: %v vs %v", res.Nodes, plain.Nodes)
	}
	stats := res.Trace.StageStats(StageSpanNames...)
	if len(stats) != len(StageSpanNames) {
		t.Fatalf("%d stage stats, want %d", len(stats), len(StageSpanNames))
	}
	var buf strings.Builder
	if err := res.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"traceEvents"`) {
		t.Error("trace JSON missing traceEvents")
	}
	buf.Reset()
	if err := res.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mpsim_bytes_sent_total") {
		t.Error("metrics dump missing mpsim_bytes_sent_total")
	}
	buf.Reset()
	WriteStageStats(&buf, stats)
	if !strings.Contains(buf.String(), "compute") {
		t.Error("stage table missing compute row")
	}
}

func TestPublicEventLog(t *testing.T) {
	vol := Sinusoid(17, 2)
	var buf bytes.Buffer
	plan := NewFaultPlan(1).CrashRank(2, "compute")
	res, err := Compute(vol, Options{
		Procs: 8, FullMerge: true, Persistence: 0.15,
		Faults: plan, Log: obs.NewJSONLogger(&buf),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Setting Log implies tracing, and the crash must surface both as a
	// trace instant and as a structured log line carrying a virtual
	// timestamp for joining against the spans.
	if res.Trace == nil {
		t.Fatal("Options.Log did not imply tracing")
	}
	out := buf.String()
	if !strings.Contains(out, `"msg":"fault.crash"`) {
		t.Errorf("log missing fault.crash event:\n%s", out)
	}
	if !strings.Contains(out, `"vt":`) {
		t.Errorf("log lines carry no virtual timestamps:\n%s", out)
	}
	if !strings.Contains(out, `"msg":"recover.rebuild"`) {
		t.Errorf("log missing recovery decision:\n%s", out)
	}
	if strings.Contains(out, `"time":`) {
		t.Errorf("log lines carry wall-clock timestamps (nondeterministic):\n%s", out)
	}
}

// TestInfSampleKeepsFiniteThreshold: an infinite sample does not widen
// the value range, so the relative persistence threshold stays finite
// and the complex is not simplified down to a single minimum.
func TestInfSampleKeepsFiniteThreshold(t *testing.T) {
	vol := Sinusoid(17, 2)
	lo, hi := vol.Range()
	vol.Set(8, 8, 8, float32(math.Inf(1)))
	if l, h := vol.Range(); l != lo || h != hi {
		t.Fatalf("range with +Inf [%v, %v], want [%v, %v]", l, h, lo, hi)
	}
	res, err := Compute(vol, Options{Procs: 8, FullMerge: true, Persistence: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes[0] <= 1 {
		t.Fatalf("nodes %v: everything simplified to one minimum", res.Nodes)
	}
	if want, _ := ComputeSerial(vol, 0.01).AliveCounts(); res.Nodes != want {
		t.Fatalf("parallel nodes %v, serial %v", res.Nodes, want)
	}
}

// TestNaNRejected: a NaN sample has no place in the vertex order the
// gradient stage sorts by, so both library entry points refuse the
// input with ErrNaN before a rank runs, and the in-situ source is
// consulted once per block up front.
func TestNaNRejected(t *testing.T) {
	vol := Sinusoid(9, 1)
	vol.Set(3, 4, 5, float32(math.NaN()))
	_, err := Compute(vol, Options{Procs: 4, FullMerge: true, Trace: true})
	if !errors.Is(err, ErrNaN) {
		t.Fatalf("Compute: error %v, want ErrNaN", err)
	}
	if !strings.Contains(err.Error(), "(3,4,5)") {
		t.Errorf("Compute: error %q does not name the NaN vertex", err)
	}
	calls := 0
	_, err = ComputeInSitu(vol.Dims, func(lo, hi [3]int) *Volume {
		calls++
		return vol.SubVolume(lo, hi)
	}, 0, 1, Options{Procs: 4, FullMerge: true})
	if !errors.Is(err, ErrNaN) {
		t.Fatalf("ComputeInSitu: error %v, want ErrNaN", err)
	}
	if calls > 4 {
		t.Errorf("ComputeInSitu called the source %d times for 4 blocks", calls)
	}
}
