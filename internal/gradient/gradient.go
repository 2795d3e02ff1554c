// Package gradient computes the discrete gradient vector field of one
// block, following the greedy steepest-descent construction of Gyulassy
// et al. (2008) as described in section IV-C of the paper: cells are
// processed by increasing dimension and then increasing function value
// (under the simulation-of-simplicity total order); a d-cell is paired
// with the steepest of its unassigned cofacets for which it is the only
// unassigned facet, and is marked critical otherwise.
//
// The order is realized without sorting cells. One sort ranks the
// block's vertices by (value, id); because the SoS order compares cells
// top vertex first, each dimension's sweep walks the vertices in rank
// order and processes each vertex's lower star — the few cells whose
// top vertex it is — ordered by the rest of their rank sequences. That
// is exactly the sorted cell order (see order.go). -0 and +0 are the
// same value to the order; NaN has no place in it and is rejected at
// pipeline entry (grid.ErrNaN).
//
// To allow blocks to be glued during the merge stage, pairing is
// restricted on shared block boundaries: a cell lying on the boundary of
// two or more blocks may only pair with cells lying on the boundary of
// those same blocks. The pairing decisions inside such a boundary
// stratum then depend only on the stratum's own cells and values, so two
// neighboring blocks compute byte-identical gradients on their shared
// face.
//
// The result is stored in one byte per refined-grid cell, exactly as the
// paper's implementation does: three bits of pair direction, plus flags
// for assigned/critical state.
package gradient

import (
	"fmt"

	"parms/internal/cube"
	"parms/internal/grid"
	"parms/internal/kernel"
	"parms/internal/vtime"
)

// State byte layout.
const (
	dirMask     = 0x07 // bits 0-2: direction of the paired neighbor
	flagPaired  = 0x08 // bit 3: cell is half of a gradient vector
	flagCrit    = 0x10 // bit 4: cell is critical
	flagVisited = 0x20 // bit 5: scratch flag for traversals
)

// Field is the discrete gradient vector field of one block, stored in
// structure-of-arrays form: one state byte per refined-grid cell, one
// stratum id per block-face cell, plus the flat successor arrays the
// tracing kernels iterate (headOf for every tail cell, succ0 for the
// functional vertex layer). The per-vertex rank table lives only while
// pairing runs.
type Field struct {
	C *cube.Complex

	state  []byte
	strata [6][]int32 // face-cell stratum ids, one plane per block face (faceSlot)
	rank   []int32    // vertex -> SoS rank; built and released by assign

	// Successor arrays, built by successorsKernel after assignment.
	headOf        []int32 // tail cell -> paired head cofacet, -1 otherwise
	succ0         []int32 // vertex -> next vertex on its V-path chain, -1 at criticals
	nvx, nvy, nvz int     // vertex-grid extents

	// Work tallies the operations spent computing the field, for the
	// virtual-time cost model.
	Work vtime.Work
}

// Compute builds the discrete gradient field for the block underlying c.
// dec supplies the global decomposition for the boundary pairing
// restriction; passing nil disables the restriction (the serial,
// single-block behaviour).
func Compute(c *cube.Complex, dec *grid.Decomposition) *Field {
	return ComputePooled(c, dec, nil)
}

// ComputePooled is Compute with an explicit intra-rank worker pool for
// the batch kernels (vertex sort keys and successor-array builds).
// The greedy pairing sweep itself is order-dependent and stays
// sequential, so the resulting field is byte-identical for every pool
// width — a nil pool is the reference sequential path.
func ComputePooled(c *cube.Complex, dec *grid.Decomposition, pool *kernel.Pool) *Field {
	f := &Field{
		C:     c,
		state: make([]byte, c.NumCells()),
	}
	f.classifyStrata(dec)
	f.assign(pool)
	f.successorsKernel(pool)
	return f
}

// classifyStrata assigns each cell a stratum id. Interior cells (owned
// by this block alone) get stratum 0; cells on a shared boundary get an
// id interned from the sorted set of blocks whose closed boxes contain
// the cell, numbered in cell-index order. Only face cells can lie on a
// shared boundary, so only they are visited and stored.
func (f *Field) classifyStrata(dec *grid.Decomposition) {
	if dec == nil {
		return // everything stratum 0
	}
	c := f.C
	for face, n := range [6]int{c.NY * c.NZ, c.NY * c.NZ, c.NX * c.NZ, c.NX * c.NZ, c.NX * c.NY, c.NX * c.NY} {
		f.strata[face] = make([]int32, n)
	}
	home, lo := c.Block.ID, c.Block.Lo
	intern := map[string]int32{}
	var key []byte
	classify := func(x, y, z int) {
		gx, gy, gz := x+2*lo[0], y+2*lo[1], z+2*lo[2]
		if !dec.SharedBoundary(home, gx, gy, gz) {
			return // interior, or a face on the domain boundary: unrestricted
		}
		key = key[:0]
		for _, o := range dec.OwnersOfRefined(home, gx, gy, gz) {
			key = append(key, byte(o), byte(o>>8), byte(o>>16), byte(o>>24))
		}
		id, ok := intern[string(key)]
		if !ok {
			id = int32(len(intern) + 1)
			intern[string(key)] = id
		}
		face, i := f.faceSlot([3]int{x, y, z})
		f.strata[face][i] = id
	}
	for z := 0; z < c.NZ; z++ {
		for y := 0; y < c.NY; y++ {
			if z == 0 || z == c.NZ-1 || y == 0 || y == c.NY-1 {
				for x := 0; x < c.NX; x++ {
					classify(x, y, z)
				}
				continue
			}
			classify(0, y, z)
			classify(c.NX-1, y, z)
		}
	}
}

// pair records the gradient vector tail→head between facet tail and
// cofacet head.
func (f *Field) pair(tail, head int) {
	f.state[tail] = flagPaired | dirOf(f.C, tail, head)
	f.state[head] = flagPaired | dirOf(f.C, head, tail)
}

// dirOf returns the 3-bit direction code from cell a to its facet or
// cofacet b: axis*2 + (1 if positive direction).
func dirOf(c *cube.Complex, a, b int) byte {
	diff := b - a
	switch diff {
	case -1:
		return 0
	case 1:
		return 1
	case -c.NX:
		return 2
	case c.NX:
		return 3
	case -c.NX * c.NY:
		return 4
	case c.NX * c.NY:
		return 5
	}
	panic(fmt.Sprintf("gradient: cells %d and %d are not incident", a, b))
}

// neighborByDir returns the cell adjacent to idx in the given direction.
func neighborByDir(c *cube.Complex, idx int, dir byte) int {
	switch dir {
	case 0:
		return idx - 1
	case 1:
		return idx + 1
	case 2:
		return idx - c.NX
	case 3:
		return idx + c.NX
	case 4:
		return idx - c.NX*c.NY
	default:
		return idx + c.NX*c.NY
	}
}

// IsCritical reports whether a cell is unpaired (a node of the complex).
func (f *Field) IsCritical(idx int) bool { return f.state[idx]&flagCrit != 0 }

// IsPaired reports whether a cell is half of a gradient vector.
func (f *Field) IsPaired(idx int) bool { return f.state[idx]&flagPaired != 0 }

// PairedWith returns the cell paired with idx, if any.
func (f *Field) PairedWith(idx int) (int, bool) {
	if !f.IsPaired(idx) {
		return 0, false
	}
	return neighborByDir(f.C, idx, f.state[idx]&dirMask), true
}

// IsHead reports whether idx is the head (higher-dimensional end) of its
// gradient vector.
func (f *Field) IsHead(idx int) bool {
	p, ok := f.PairedWith(idx)
	return ok && f.C.Dim(p) < f.C.Dim(idx)
}

// IsTail reports whether idx is the tail (lower-dimensional end) of its
// gradient vector.
func (f *Field) IsTail(idx int) bool {
	p, ok := f.PairedWith(idx)
	return ok && f.C.Dim(p) > f.C.Dim(idx)
}

// Stratum returns the boundary stratum id of a cell (0 for interior).
func (f *Field) Stratum(idx int) int32 {
	x, y, z := f.C.Coords(idx)
	return f.stratum([3]int{x, y, z})
}

// stratum returns the boundary stratum id of the cell at refined
// coordinates p: 0 for interior cells and for every cell when no
// decomposition restricts pairing.
func (f *Field) stratum(p [3]int) int32 {
	face, i := f.faceSlot(p)
	if face < 0 || f.strata[face] == nil {
		return 0
	}
	return f.strata[face][i]
}

// faceSlot locates the stratum slot of the cell at refined coordinates
// p: the first block face it lies on (x low, x high, y low, y high, z
// low, z high) and its index in that face's plane, or face -1 for an
// interior cell.
func (f *Field) faceSlot(p [3]int) (face, i int) {
	c := f.C
	switch {
	case p[0] == 0:
		return 0, p[1] + p[2]*c.NY
	case p[0] == c.NX-1:
		return 1, p[1] + p[2]*c.NY
	case p[1] == 0:
		return 2, p[0] + p[2]*c.NX
	case p[1] == c.NY-1:
		return 3, p[0] + p[2]*c.NX
	case p[2] == 0:
		return 4, p[0] + p[1]*c.NX
	case p[2] == c.NZ-1:
		return 5, p[0] + p[1]*c.NX
	}
	return -1, 0
}

// StateByte exposes the raw one-byte encoding of a cell's gradient
// state (used by tests that compare shared faces between blocks).
func (f *Field) StateByte(idx int) byte { return f.state[idx] &^ flagVisited }

// CriticalCells returns the indices of all critical cells, in index
// order.
func (f *Field) CriticalCells() []int32 {
	var out []int32
	for idx := range f.state {
		if f.state[idx]&flagCrit != 0 {
			out = append(out, int32(idx))
		}
	}
	return out
}

// CriticalCounts returns the number of critical cells of each index.
func (f *Field) CriticalCounts() [4]int {
	var counts [4]int
	for idx := range f.state {
		if f.state[idx]&flagCrit != 0 {
			counts[f.C.Dim(idx)]++
		}
	}
	return counts
}

// Validate checks structural invariants of the field: every paired cell
// points at a cell that points back, pairs span exactly one dimension,
// pairs respect strata, and no cell is both paired and critical. It
// also verifies acyclicity by walking every V-path and failing if any
// walk exceeds the cell count. It returns the first violation found.
func (f *Field) Validate() error {
	c := f.C
	n := c.NumCells()
	for idx := 0; idx < n; idx++ {
		s := f.state[idx]
		if s&flagPaired != 0 && s&flagCrit != 0 {
			return fmt.Errorf("cell %d both paired and critical", idx)
		}
		if s&flagPaired != 0 {
			p := neighborByDir(c, idx, s&dirMask)
			if p < 0 || p >= n {
				return fmt.Errorf("cell %d paired out of range", idx)
			}
			if !f.IsPaired(p) {
				return fmt.Errorf("cell %d paired with unpaired cell %d", idx, p)
			}
			if back := neighborByDir(c, p, f.state[p]&dirMask); back != idx {
				return fmt.Errorf("pairing of %d and %d not mutual", idx, p)
			}
			if dd := c.Dim(p) - c.Dim(idx); dd != 1 && dd != -1 {
				return fmt.Errorf("pair %d(%d-cell)–%d(%d-cell) does not span one dimension",
					idx, c.Dim(idx), p, c.Dim(p))
			}
			if si, sp := f.Stratum(idx), f.Stratum(p); si != sp {
				return fmt.Errorf("pair %d–%d crosses strata %d–%d", idx, p, si, sp)
			}
		}
	}
	// Acyclicity: follow the deterministic descending V-path from the
	// tail of every vector in the (0,1) layer and the single-successor
	// walks in higher layers via bounded traversal from criticals.
	limit := n + 1
	for idx := 0; idx < n; idx++ {
		if c.Dim(idx) != 0 || !f.IsTail(idx) {
			continue
		}
		steps := 0
		v := idx
		for {
			e, ok := f.PairedWith(v)
			if !ok || c.Dim(e) != 1 {
				break
			}
			// Move to the other endpoint of e.
			var fb [6]int
			fc := c.Facets(e, fb[:0])
			if fc[0] == v {
				v = fc[1]
			} else {
				v = fc[0]
			}
			if f.IsCritical(v) {
				break
			}
			steps++
			if steps > limit {
				return fmt.Errorf("cycle detected in (0,1) V-path from cell %d", idx)
			}
		}
	}
	return nil
}
