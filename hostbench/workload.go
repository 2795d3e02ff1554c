package main

import (
	"fmt"

	"parms"
	"parms/internal/grid"
	"parms/internal/kernel"
	"parms/internal/synth"
)

// defaultSeed is the seed the golden outputs below were recorded with.
const defaultSeed = 1

// persistence is the relative simplification threshold of every
// workload (the paper's 1% persistence simplification).
const persistence = 0.01

// golden pins a workload's output at the default seed: alive node
// counts by Morse index, alive arcs, and the sha256 (hex) over the
// serialized output complexes in block-id order.
type golden struct {
	nodes  [4]int
	arcs   int
	digest string
}

// workload is one input set the benchmark drives through parms.Compute.
type workload struct {
	name string
	// procs is the rank count; the decomposition has one block per rank.
	procs int
	// merge selects the full merge schedule (false: no merge rounds).
	merge bool
	// volume generates the input; only seeded generators read the seed.
	volume func(seed int64) *grid.Volume
	// golden is the expected output at defaultSeed; nil skips the check.
	golden *golden
}

// workloads are the benchmark's inputs. sinusoid-p8 is compute-bound
// (gradient and trace dominate), noise-p64 is merge-bound (serialize,
// glue and compact dominate), and torus-p1 is the only one whose
// intra-rank kernel pool runs wider than one worker.
var workloads = []workload{
	{
		name: "sinusoid-p8", procs: 8, merge: true,
		volume: func(int64) *grid.Volume { return synth.Sinusoid(96, 6) },
		golden: &golden{
			nodes: [4]int{108, 146, 147, 108}, arcs: 15291,
			digest: "1c153db90202defd6abe03ec17e2427dbf60faf3401d8fd9959bd8a839bc178d",
		},
	},
	{
		name: "noise-p64", procs: 64, merge: true,
		volume: func(seed int64) *grid.Volume { return synth.Random(grid.Dims{48, 48, 48}, seed) },
		golden: &golden{
			nodes: [4]int{15537, 34866, 22530, 3200}, arcs: 302672,
			digest: "3cad25540693f55975faaee9b81d54d6ddc73def11bc17dd4e378e1eba5eb10b",
		},
	},
	{
		name: "torus-p1", procs: 1, merge: false,
		volume: func(int64) *grid.Volume { return synth.Torus(80) },
		golden: &golden{
			nodes: [4]int{6, 6, 1, 0}, arcs: 19,
			digest: "0c07dafda90ba33d02f23810c3d769297be02202e7a2ffb89718bc68f98a86a1",
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// options are the parms.Compute options of the workload: auto pool
// width, full merge where it merges, F32 input through the cluster FS.
func (w workload) options(trace bool) parms.Options {
	return parms.Options{
		Procs:       w.procs,
		FullMerge:   w.merge,
		Persistence: persistence,
		Trace:       trace,
	}
}

// poolWidth is the intra-rank kernel pool width the program picks for
// the workload under Workers: 0 (auto).
func (w workload) poolWidth() int { return kernel.AutoWorkers(w.procs) }
