// Fixture for the lexical collective shapes: a collective reached only
// inside a rank-derived branch, in every form the condition takes —
// direct, else arm, tainted local, nested, switch, returned collective
// error, helper-wrapped and laundered through two frames — next to the
// legal idioms (hoisted collective, unconditional, size branch,
// laundered uniform flag) that must stay silent. The spmd matcher
// checks it; imports the real substrate so type resolution runs
// against the true Rank type.
package collective

import "parms/internal/mpsim"

func badDirect(r *mpsim.Rank) {
	if r.ID() == 0 { // want `spmd: rank-dependent control flow yields mismatched collective sequences`
		r.Barrier()
	}
}

// Point-to-point traffic may diverge; the collective in the other arm
// may not.
func badElse(r *mpsim.Rank, data []byte) {
	if r.ID() != 0 { // want `spmd: rank-dependent control flow yields mismatched collective sequences`
		r.Send(0, 1, data)
	} else {
		_ = r.Gather(0, data)
	}
}

func badTainted(r *mpsim.Rank) {
	root := r.ID() == 0
	if root { // want `spmd: rank-dependent control flow yields mismatched collective sequences`
		r.Barrier()
	}
}

// One divergence, one finding: the branch is reported, and the loop
// inside it is not, because its bound n is uniform.
func badNested(r *mpsim.Rank, n int) {
	if n > 4 {
		if id := r.ID(); id < n/2 { // want `spmd: rank-dependent control flow yields mismatched collective sequences`
			for i := 0; i < n; i++ {
				_ = r.AllreduceFloat64(1.0, "sum")
			}
		}
	}
}

func badSwitch(r *mpsim.Rank) {
	switch r.ID() { // want `spmd: rank-dependent control flow yields mismatched collective sequences`
	case 0:
		r.Barrier()
	}
}

// Returning a collective's error is a normal return, not an abort: only
// rank 0 enters the CollectiveWrite.
func badCollectiveIO(r *mpsim.Rank, data []byte) error {
	if r.ID() == 0 { // want `spmd: rank-dependent control flow yields mismatched collective sequences`
		return r.CollectiveWrite("out", 0, data)
	}
	return nil
}

// Legal: the writeOutput pattern — root-only computation in the branch,
// the collective itself outside, so every rank enters it.
func goodHoisted(r *mpsim.Rank, data []byte) error {
	var payload []byte
	if r.ID() == 0 {
		payload = data
	}
	return r.CollectiveWrite("out", 0, payload)
}

func goodUnconditional(r *mpsim.Rank) {
	r.Barrier()
	_ = r.AllreduceMaxTime()
}

// Legal: branching on cluster size is uniform across ranks.
func goodSizeBranch(r *mpsim.Rank, n int) {
	if r.Size() > n {
		r.Barrier()
	}
}

// The rank test hidden behind a helper: the condition is rank-tainted
// through the helper's summary, not any lexical ID call.
func isRoot(r *mpsim.Rank) bool {
	return r.ID() == 0
}

func badHelperWrapped(r *mpsim.Rank) {
	if isRoot(r) { // want `spmd: rank-dependent control flow yields mismatched collective sequences`
		r.Barrier()
	}
}

// Two frames deep: the flag is computed by one helper and laundered
// through a second before reaching the branch.
func lowHalf(r *mpsim.Rank) bool { return r.ID() < r.Size()/2 }

func launder(flag bool) bool { return flag }

func badTwoFrames(r *mpsim.Rank) {
	if launder(lowHalf(r)) { // want `spmd: rank-dependent control flow yields mismatched collective sequences`
		r.Barrier()
	}
}

// Legal: the same laundering helper fed a uniform flag; the callee's
// taint is parameter-conditional, not unconditional.
func goodLaundered(r *mpsim.Rank, every bool) {
	if launder(every) {
		r.Barrier()
	}
}
