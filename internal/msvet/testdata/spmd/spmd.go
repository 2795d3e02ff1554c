// Fixture for the spmd collective-sequence matcher: rank-dependent
// control flow whose paths enter different collective sequences, in
// every shape the engine distinguishes — direct branch, early return,
// rank-bounded loop, struct-field taint, and divergence smuggled
// through helper calls — next to the legal idioms (root-compute then
// uniform collective, identical arms, error aborts, param-bounded
// loops) that must stay silent.
package spmd

import "parms/internal/mpsim"

// Direct mismatch: only rank 0 enters the Barrier.
func badDirect(r *mpsim.Rank) {
	if r.ID() == 0 { // want `spmd: rank-dependent control flow yields mismatched collective sequences`
		r.Barrier()
	}
}

// Legal: root-only compute, collective outside the branch.
func goodRooted(r *mpsim.Rank, data []byte) []byte {
	if r.ID() == 0 {
		data = append(data, 1)
	}
	return r.Bcast(0, data)
}

// Legal: both arms enter the same collective sequence.
func goodSameArms(r *mpsim.Rank, x float64) float64 {
	if r.ID() == 0 {
		return r.AllreduceFloat64(x, "max")
	}
	return r.AllreduceFloat64(x, "min")
}

// The two-frame chain: Drive derives a rank-tainted flag and hands it
// to stage, which hands it on to pick the collective path. The
// divergence is only visible through both summaries.
func reduceAll(r *mpsim.Rank, x float64) float64 {
	return r.AllreduceFloat64(x, "max")
}

func stage(r *mpsim.Rank, lead bool, x float64) float64 {
	if lead {
		return reduceAll(r, x)
	}
	return x
}

func Drive(r *mpsim.Rank, x float64) float64 {
	lead := r.ID() == 0
	return stage(r, lead, x) // want `spmd: call to stage selects between mismatched collective sequences`
}

// Legal use of the same helper: a rank-uniform flag selects the path,
// so every rank selects the same one.
func DriveUniform(r *mpsim.Rank, every bool, x float64) float64 {
	return stage(r, every, x)
}

// Early return: odd ranks skip the Barrier.
func badEarlyReturn(r *mpsim.Rank) {
	if r.ID()%2 == 1 { // want `spmd: rank-dependent control flow yields mismatched collective sequences`
		return
	}
	r.Barrier()
}

// Rank-dependent loop bound: ranks run different collective counts.
func badLoop(r *mpsim.Rank) {
	for i := 0; i < r.ID(); i++ { // want `spmd: collectives inside a loop whose iteration count is rank-dependent`
		r.Barrier()
	}
}

// Legal: the bound is a parameter — the caller is responsible for
// passing a uniform one, and Drive-style misuse is caught there.
func goodLoop(r *mpsim.Rank, rounds int) {
	for i := 0; i < rounds; i++ {
		r.Barrier()
	}
}

// Struct-field taint: the rank flag travels through a field.
type phase struct {
	leader bool
}

func badField(r *mpsim.Rank) {
	var p phase
	p.leader = r.ID() == 0
	if p.leader { // want `spmd: rank-dependent control flow yields mismatched collective sequences`
		r.Barrier()
	}
}

// Legal: the rank-guarded path aborts the whole run (error return);
// abort paths are excluded from sequence matching, as a crash takes
// the cluster down rather than deadlocking it.
func goodAbort(r *mpsim.Rank, err error) error {
	if r.ID() == 0 && err != nil {
		return err
	}
	r.Barrier()
	return nil
}

// The bound's own taint still counts: k is set under an earlier rank
// branch, so ranks run the loop different numbers of times.
func badBoundFromBranch(r *mpsim.Rank, n int) {
	k := 0
	if r.ID() == 0 {
		k = n
	}
	for i := 0; i < k; i++ { // want `spmd: collectives inside a loop whose iteration count is rank-dependent`
		r.Barrier()
	}
}
