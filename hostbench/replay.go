package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"

	"parms/internal/cube"
	"parms/internal/gradient"
	"parms/internal/grid"
	"parms/internal/kernel"
	"parms/internal/merge"
	"parms/internal/mpsim"
	"parms/internal/mscomplex"
	"parms/internal/pario"
	"parms/internal/vtime"
)

// payload is one merge message the replay produced: the framed bytes
// block From sends to its group root To in the given round, with Slot
// the member's position in the group.
type payload struct {
	Round, From, To, Slot int
	Frame                 []byte
}

// replayStats are the counts the replay gathers at the layer
// boundaries, beside the spans' times.
type replayStats struct {
	blocks int

	readBytes, writeBytes int64

	gradientWork                   vtime.Work
	gradientAlloc, gradientMallocs uint64
	criticalCells                  int64

	traceAlloc                       uint64
	pathSteps, sweeps, sweepWrites   int64
	truncated                        int64
	cancellations, skippedFanout     int64
	computeWork                      vtime.Work // per-block field + compacted work, as the pipeline counts it
	blockWork                        vtime.Work // per-block trace + simplify + compact work (mscomplex layer)
	mergeWork                        vtime.Work // glue + simplify + compact deltas over all rounds
	mergeAlloc, payloadBytes, rounds int64
	payloads                         []payload
}

// replayResult is one sequential replay of a workload's layer calls.
type replayResult struct {
	rec    *recorder
	stats  replayStats
	digest string
}

func memSample() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// replay runs the workload's decomposition through the layers' public
// functions, sequentially in the calling goroutine, in the order the
// pipeline calls them: block reads, the per-block compute chain, the
// merge rounds along merge.Schedule.RoundGroups, and the output
// serialization. Every call is wrapped in a span. pool is the kernel
// pool the gradient and trace calls run on (nil: width 1).
func replay(w workload, vol *grid.Volume, pool *kernel.Pool) (*replayResult, error) {
	const file = "volume.raw"
	fs := mpsim.NewFS()
	pario.WriteVolume(fs, file, vol)
	lo, hi := vol.Range()
	threshold := float32(persistence * float64(hi-lo))
	simplify := mscomplex.SimplifyOptions{Threshold: threshold}

	rec := newRecorder()
	st := replayStats{}
	root := rec.begin("replay", -1, -1)

	sp := rec.begin("pario.read", -1, -1)
	dec, err := grid.Decompose(vol.Dims, w.procs)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	nblocks := dec.NumBlocks()
	st.blocks = nblocks
	complexes := make(map[int]*mscomplex.Complex, nblocks)
	for bid := 0; bid < nblocks; bid++ {
		b := dec.Blocks[bid]
		sp = rec.begin("pario.read", bid, -1)
		bv, err := pario.ReadBlockVolume(fs, file, vol.Dims, vol.DType, b)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		st.readBytes += pario.BlockBytes(vol.DType, b)

		sp = rec.begin("cube.new", bid, -1)
		cc := cube.New(vol.Dims, b, bv)
		rec.end(sp)

		m0 := memSample()
		sp = rec.begin("gradient", bid, -1)
		field := gradient.ComputePooled(cc, dec, pool)
		rec.end(sp)
		m1 := memSample()
		sp = rec.begin("mscomplex.trace", bid, -1)
		traced := mscomplex.FromFieldPooled(field, dec, mscomplex.TraceOptions{}, pool)
		rec.end(sp)
		m2 := memSample()
		st.gradientAlloc += m1.TotalAlloc - m0.TotalAlloc
		st.gradientMallocs += m1.Mallocs - m0.Mallocs
		st.traceAlloc += m2.TotalAlloc - m1.TotalAlloc
		st.gradientWork.Add(field.Work)
		st.criticalCells += int64(len(field.CriticalCells()))
		st.pathSteps += traced.Complex.Work.PathSteps
		st.sweeps += int64(traced.Kernel.Sweeps)
		st.sweepWrites += traced.Complex.Work.SweepWrites
		st.truncated += int64(traced.Truncated)

		ms := traced.Complex
		sp = rec.begin("mscomplex.simplify", bid, -1)
		ss := ms.Simplify(simplify)
		rec.end(sp)
		st.cancellations += int64(ss.Cancellations)
		st.skippedFanout += int64(ss.SkippedFanout)

		sp = rec.begin("mscomplex.compact", bid, -1)
		compacted := ms.Compact()
		rec.end(sp)
		complexes[bid] = compacted
		st.blockWork.Add(compacted.Work)
		cw := field.Work
		cw.Add(compacted.Work)
		st.computeWork.Add(cw)
	}

	sched := merge.Schedule{}
	if w.merge {
		sched = merge.Full(nblocks)
	}
	st.rounds = int64(len(sched.Radices))
	for round := range sched.Radices {
		m0 := memSample()
		rs := rec.begin("merge.round", -1, round)
		for _, g := range sched.RoundGroups(nblocks, round) {
			root := complexes[g.Root]
			before := root.Work
			for slot, m := range g.Members {
				if m == g.Root {
					continue
				}
				sp = rec.begin("merge.serialize", m, round)
				frame := mpsim.Frame(complexes[m].Serialize())
				rec.end(sp)
				delete(complexes, m)
				st.payloads = append(st.payloads, payload{Round: round, From: m, To: g.Root, Slot: slot, Frame: frame})
				st.payloadBytes += int64(len(frame))

				sp = rec.begin("merge.deserialize", m, round)
				inner, err := mpsim.Unframe(frame)
				var other *mscomplex.Complex
				if err == nil {
					other, err = mscomplex.Deserialize(inner)
				}
				rec.end(sp)
				if err != nil {
					return nil, fmt.Errorf("round %d block %d: %w", round, m, err)
				}

				sp = rec.begin("merge.glue", m, round)
				root.Glue(other)
				rec.end(sp)
			}
			sp = rec.begin("merge.simplify", g.Root, round)
			root.Simplify(simplify)
			rec.end(sp)
			sp = rec.begin("merge.compact", g.Root, round)
			compacted := root.Compact()
			rec.end(sp)
			st.mergeWork.Add(workDelta(compacted.Work, before))
			complexes[g.Root] = compacted
		}
		rec.end(rs)
		m1 := memSample()
		st.mergeAlloc += int64(m1.TotalAlloc - m0.TotalAlloc)
	}

	h := sha256.New()
	var entries []pario.IndexEntry
	var off int64
	for _, bid := range sched.Survivors(nblocks) {
		sp = rec.begin("pario.write", bid, -1)
		data := complexes[bid].Serialize()
		entries = append(entries, pario.IndexEntry{
			BlockID: int32(bid), Offset: off, Size: int64(len(data)),
			CRC: mpsim.Checksum(data), Region: complexes[bid].Region,
		})
		rec.end(sp)
		off += int64(len(data))
		h.Write(data)
	}
	sp = rec.begin("pario.write", -1, -1)
	footer := pario.EncodeFooter(entries)
	rec.end(sp)
	st.writeBytes = off + int64(len(footer))
	rec.end(root)

	if len(complexes) != len(sched.Survivors(nblocks)) {
		return nil, fmt.Errorf("replay ended with %d complexes, want %d", len(complexes), len(sched.Survivors(nblocks)))
	}
	return &replayResult{rec: rec, stats: st, digest: hex.EncodeToString(h.Sum(nil))}, nil
}

// workDelta is after − before, field by field.
func workDelta(after, before vtime.Work) vtime.Work {
	return vtime.Work{
		CellsVisited:  after.CellsVisited - before.CellsVisited,
		PairTests:     after.PairTests - before.PairTests,
		PathSteps:     after.PathSteps - before.PathSteps,
		Cancellations: after.Cancellations - before.Cancellations,
		ArcsTouched:   after.ArcsTouched - before.ArcsTouched,
		NodesGlued:    after.NodesGlued - before.NodesGlued,
		BytesCoded:    after.BytesCoded - before.BytesCoded,
		SortedItems:   after.SortedItems - before.SortedItems,
		SweepWrites:   after.SweepWrites - before.SweepWrites,
	}
}
