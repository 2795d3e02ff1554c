package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"parms"
	"parms/internal/mscomplex"
)

// outcome is what one Compute call produced, reduced to the values
// every call of a workload must reproduce exactly.
type outcome struct {
	nodes   [4]int
	arcs    int
	digest  string
	modeled float64
}

// digestComplexes hashes the serialized complexes in block-id order.
func digestComplexes(cs map[int]*mscomplex.Complex) string {
	ids := make([]int, 0, len(cs))
	for id := range cs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	h := sha256.New()
	for _, id := range ids {
		h.Write(cs[id].Serialize())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkResult verifies one Compute result on its own: no error, one
// output complex that passes Validate and has Euler characteristic 1,
// and node/arc counts that agree with that complex.
func checkResult(res *parms.Result, err error) (outcome, error) {
	if err != nil {
		return outcome{}, err
	}
	if len(res.Complexes) != 1 {
		return outcome{}, fmt.Errorf("got %d output complexes, want 1", len(res.Complexes))
	}
	ms := res.Merged()
	if err := ms.Validate(); err != nil {
		return outcome{}, fmt.Errorf("merged complex: %w", err)
	}
	if chi := ms.EulerCharacteristic(); chi != 1 {
		return outcome{}, fmt.Errorf("merged complex has Euler characteristic %d, want 1", chi)
	}
	if n, a := ms.AliveCounts(); n != res.Nodes || a != res.Arcs {
		return outcome{}, fmt.Errorf("result reports %v/%d but the complex holds %v/%d", res.Nodes, res.Arcs, n, a)
	}
	return outcome{
		nodes:   res.Nodes,
		arcs:    res.Arcs,
		digest:  digestComplexes(res.Complexes),
		modeled: res.Times.Total,
	}, nil
}

// verifier checks every call of a run against the first one and, at
// the default seed, against the workload's recorded golden output.
type verifier struct {
	w    workload
	seed int64
	ref  *outcome
}

func (v *verifier) check(res *parms.Result, err error) error {
	got, err := checkResult(res, err)
	if err != nil {
		return err
	}
	if v.ref == nil {
		if g := v.w.golden; g != nil && v.seed == defaultSeed {
			if got.nodes != g.nodes || got.arcs != g.arcs || got.digest != g.digest {
				return fmt.Errorf("output %v/%d %s differs from the recorded %v/%d %s",
					got.nodes, got.arcs, got.digest, g.nodes, g.arcs, g.digest)
			}
		}
		v.ref = &got
		return nil
	}
	if got != *v.ref {
		return fmt.Errorf("output %v/%d %s modeled %.9g differs from the first call's %v/%d %s modeled %.9g",
			got.nodes, got.arcs, got.digest, got.modeled,
			v.ref.nodes, v.ref.arcs, v.ref.digest, v.ref.modeled)
	}
	return nil
}
