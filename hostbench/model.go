package main

import (
	"fmt"
	"io"
	"sort"

	"parms/internal/vtime"
)

// layerCost is one layer's modeled and host seconds in the replay.
type layerCost struct {
	name          string
	modeled, host float64
	priced        bool
}

// modelVsHost prices each layer's recorded work with the Blue Gene/P
// profile and sets it beside the layer's replayed host self time. Both
// sides are sums over blocks (total work, not the parallel critical
// path), so their shares compare what each clock considers expensive.
func modelVsHost(rr *replayResult, ex exchangeStats) []layerCost {
	m := vtime.BlueGeneP()
	st := rr.stats
	self := rr.rec.selfByName()
	// One independent read per block, one write of the whole output.
	readModel := float64(st.blocks)*m.IOLatency + float64(st.readBytes)/m.NodeIOBW
	writeModel := float64(m.IOTime(st.writeBytes, st.writeBytes))
	mergeWork := st.mergeWork
	// Every payload is coded twice: serialized by the member, decoded
	// at the root.
	mergeWork.BytesCoded += 2 * st.payloadBytes
	msgModel := 0.0
	for _, p := range st.payloads {
		msgModel += float64(m.MessageTime(len(p.Frame), 1))
	}
	return []layerCost{
		{name: "pario", priced: true,
			modeled: readModel + writeModel,
			host:    self["pario.read"] + self["pario.write"]},
		{name: "cube", host: self["cube.new"]},
		{name: "gradient", priced: true,
			modeled: float64(m.ComputeTime(st.gradientWork)),
			host:    self["gradient"]},
		{name: "mscomplex", priced: true,
			modeled: float64(m.ComputeTime(st.blockWork)),
			host:    self["mscomplex.trace"] + self["mscomplex.simplify"] + self["mscomplex.compact"]},
		{name: "merge", priced: true,
			modeled: float64(m.ComputeTime(mergeWork)),
			host: self["merge.round"] + self["merge.serialize"] + self["merge.deserialize"] +
				self["merge.glue"] + self["merge.simplify"] + self["merge.compact"]},
		{name: "mpsim", priced: true, modeled: msgModel, host: ex.seconds},
	}
}

// rankOf returns each priced layer's position when sorted by the given
// cost, largest first (ties by name).
func rankOf(layers []layerCost, cost func(layerCost) float64) map[string]int {
	var order []layerCost
	for _, l := range layers {
		if l.priced {
			order = append(order, l)
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		ci, cj := cost(order[i]), cost(order[j])
		if ci != cj {
			return ci > cj
		}
		return order[i].name < order[j].name
	})
	pos := make(map[string]int, len(order))
	for i, l := range order {
		pos[l.name] = i + 1
	}
	return pos
}

// writeModelVsHost prints the model-vs-host table: each layer's share
// of modeled time next to its share of host time, flagging layers that
// both clocks see working but rank differently.
func writeModelVsHost(w io.Writer, layers []layerCost) {
	var modelTotal, hostTotal float64
	for _, l := range layers {
		modelTotal += l.modeled
		hostTotal += l.host
	}
	mr := rankOf(layers, func(l layerCost) float64 { return l.modeled })
	hr := rankOf(layers, func(l layerCost) float64 { return l.host })
	fmt.Fprintf(w, "# model vs host (Blue Gene/P priced work vs replayed host self time, summed over blocks)\n")
	fmt.Fprintf(w, "#   %-10s %12s %7s %5s %12s %7s %5s\n", "layer", "modeled_s", "share", "rank", "host_s", "share", "rank")
	for _, l := range layers {
		flag := ""
		switch {
		case !l.priced:
			flag = "  not priced by the model"
		case mr[l.name] != hr[l.name] && l.modeled > 0 && l.host > 0:
			flag = "  rank differs"
		}
		fmt.Fprintf(w, "#   %-10s %12.6f %6.1f%% %5d %12.6f %6.1f%% %5d%s\n",
			l.name, l.modeled, pct(l.modeled, modelTotal), mr[l.name],
			l.host, pct(l.host, hostTotal), hr[l.name], flag)
	}
}

func pct(part, total float64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * part / total
}
