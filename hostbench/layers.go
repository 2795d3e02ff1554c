package main

// layerMetric names one per-layer metric of the traced run.
type layerMetric struct {
	name, unit string
}

// layerMetricList is every per-layer metric, prefixed by the module
// that does the work. Times (_s) are span self times summed over the
// replay's calls into that layer.
var layerMetricList = []layerMetric{
	{"pario.read_s", "s"},
	{"pario.read_bytes", "B"},
	{"pario.write_s", "s"},
	{"pario.write_bytes", "B"},
	{"cube.new_s", "s"},
	{"gradient.s", "s"},
	{"gradient.alloc_mb", "MB"},
	{"gradient.mallocs", "count"},
	{"gradient.cells", "count"},
	{"gradient.sorted_items", "count"},
	{"gradient.pair_tests", "count"},
	{"gradient.critical_cells", "count"},
	{"gradient.ns_per_cell", "ns"},
	{"gradient.block_imbalance", "ratio"},
	{"mscomplex.trace_s", "s"},
	{"mscomplex.trace_alloc_mb", "MB"},
	{"mscomplex.path_steps", "count"},
	{"mscomplex.sweeps", "count"},
	{"mscomplex.sweep_writes", "count"},
	{"mscomplex.truncated", "count"},
	{"mscomplex.simplify_s", "s"},
	{"mscomplex.compact_s", "s"},
	{"mscomplex.cancellations", "count"},
	{"mscomplex.cancel_yield", "frac"},
	{"merge.serialize_s", "s"},
	{"merge.deserialize_s", "s"},
	{"merge.glue_s", "s"},
	{"merge.simplify_s", "s"},
	{"merge.compact_s", "s"},
	{"merge.alloc_mb", "MB"},
	{"merge.payload_bytes", "B"},
	{"merge.nodes_glued", "count"},
	{"merge.arcs_touched", "count"},
	{"merge.rounds", "count"},
	{"mpsim.messages", "count"},
	{"mpsim.bytes_sent", "B"},
	{"mpsim.peak_payload_bytes", "B"},
	{"mpsim.exchange_s", "s"},
	{"kernel.width", "count"},
	{"kernel.speedup", "x"},
	{"obs.trace_overhead_frac", "frac"},
	{"obs.spans", "count"},
	{"obs.flows", "count"},
	{"vtime.read_s", "model_s"},
	{"vtime.compute_s", "model_s"},
	{"vtime.merge_s", "model_s"},
	{"vtime.write_s", "model_s"},
	{"vtime.compute_share_gap", "frac"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"replay.total_s", "s"},
}

// layerMetrics derives one replay's per-layer values. The kernel,
// trace-overhead and runtime metrics come from other parts of the
// traced run; runTraced adds them.
func layerMetrics(rr *replayResult, ex exchangeStats, prog programRun) map[string]float64 {
	st := rr.stats
	self := rr.rec.selfByName()
	total := 0.0
	for i, s := range rr.rec.selfSeconds() {
		if rr.rec.spans[i].Parent >= 0 {
			total += s
		}
	}
	grad := rr.rec.selfByBlock("gradient", st.blocks)
	maxGrad, sumGrad := 0.0, 0.0
	for _, s := range grad {
		sumGrad += s
		if s > maxGrad {
			maxGrad = s
		}
	}
	hostCompute := self["cube.new"] + self["gradient"] + self["mscomplex.trace"] +
		self["mscomplex.simplify"] + self["mscomplex.compact"]
	return map[string]float64{
		"pario.read_s":             self["pario.read"],
		"pario.read_bytes":         float64(st.readBytes),
		"pario.write_s":            self["pario.write"],
		"pario.write_bytes":        float64(st.writeBytes),
		"cube.new_s":               self["cube.new"],
		"gradient.s":               self["gradient"],
		"gradient.alloc_mb":        float64(st.gradientAlloc) / 1e6,
		"gradient.mallocs":         float64(st.gradientMallocs),
		"gradient.cells":           float64(st.gradientWork.CellsVisited),
		"gradient.sorted_items":    float64(st.gradientWork.SortedItems),
		"gradient.pair_tests":      float64(st.gradientWork.PairTests),
		"gradient.critical_cells":  float64(st.criticalCells),
		"gradient.ns_per_cell":     1e9 * ratio(self["gradient"], float64(st.gradientWork.CellsVisited)),
		"gradient.block_imbalance": ratio(maxGrad, sumGrad/float64(len(grad))),
		"mscomplex.trace_s":        self["mscomplex.trace"],
		"mscomplex.trace_alloc_mb": float64(st.traceAlloc) / 1e6,
		"mscomplex.path_steps":     float64(st.pathSteps),
		"mscomplex.sweeps":         float64(st.sweeps),
		"mscomplex.sweep_writes":   float64(st.sweepWrites),
		"mscomplex.truncated":      float64(st.truncated),
		"mscomplex.simplify_s":     self["mscomplex.simplify"],
		"mscomplex.compact_s":      self["mscomplex.compact"],
		"mscomplex.cancellations":  float64(st.cancellations),
		"mscomplex.cancel_yield":   ratio(float64(st.cancellations), float64(st.cancellations+st.skippedFanout)),
		"merge.serialize_s":        self["merge.serialize"],
		"merge.deserialize_s":      self["merge.deserialize"],
		"merge.glue_s":             self["merge.glue"],
		"merge.simplify_s":         self["merge.simplify"],
		"merge.compact_s":          self["merge.compact"],
		"merge.alloc_mb":           float64(st.mergeAlloc) / 1e6,
		"merge.payload_bytes":      float64(st.payloadBytes),
		"merge.nodes_glued":        float64(st.mergeWork.NodesGlued),
		"merge.arcs_touched":       float64(st.mergeWork.ArcsTouched),
		"merge.rounds":             float64(st.rounds),
		"mpsim.messages":           float64(ex.messages),
		"mpsim.bytes_sent":         float64(ex.bytes),
		"mpsim.peak_payload_bytes": float64(ex.peak),
		"mpsim.exchange_s":         ex.seconds,
		"obs.spans":                float64(prog.spans),
		"obs.flows":                float64(prog.flows),
		"vtime.read_s":             prog.times.Read,
		"vtime.compute_s":          prog.times.Compute,
		"vtime.merge_s":            prog.times.Merge,
		"vtime.write_s":            prog.times.Write,
		"vtime.compute_share_gap":  ratio(prog.times.Compute, prog.times.Total) - ratio(hostCompute, total),
		"replay.total_s":           total,
	}
}
