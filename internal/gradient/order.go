package gradient

import (
	"math/bits"
	"slices"

	"parms/internal/kernel"
)

// assign runs the greedy pairing sweeps, one per dimension, in the
// simulation-of-simplicity (SoS) order of section IV-C. One sort of the
// block's vertices ranks them (buildRanks). Each d-sweep then walks the
// vertices in rank order and, at each vertex v, processes the d-cells
// whose highest-ranked vertex is v — v's lower star in dimension d —
// ordered by their descending rank sequences. SoS compares cells by
// their descending vertex sequences, top vertex first, so this visits
// every d-cell exactly once and in exactly the order a sort of all
// d-cells would give. The pool accelerates the key kernel; the greedy
// loop itself is sequential because each pairing decision depends on
// earlier ones.
func (f *Field) assign(pool *kernel.Pool) {
	c := f.C
	f.Work.CellsVisited += int64(c.NumCells())
	order := f.buildRanks(pool)

	nvx, nvy, nvz := (c.NX+1)/2, (c.NY+1)/2, (c.NZ+1)/2
	var star [12]starCell
	for d := 0; d <= 2; d++ {
		// The cost model keeps charging the per-dimension sort of the
		// published algorithm, so modeled times do not depend on how
		// the host realizes the order.
		nc := cellsOfDim(nvx, nvy, nvz, d)
		f.Work.SortedItems += int64(nc) * int64(bits.Len(uint(nc)))
		dirs := starDirs(nvx, nvy, c.NX, c.NY, d)
		for _, v := range order {
			vx, vy, vz := int(v)%nvx, int(v)/nvx%nvy, int(v)/(nvx*nvy)
			ns := f.lowerStar(vx, vy, vz, dirs, &star)
			for _, sc := range star[:ns] {
				if f.state[sc.idx]&(flagPaired|flagCrit) != 0 {
					continue // already a head of a pair from the previous sweep
				}
				f.pairSteepest(int(sc.idx), sc.p)
			}
		}
	}
	f.rank = nil
	// Whatever remains unassigned can only be 3-cells; they are maxima.
	for idx, s := range f.state {
		if s&(flagPaired|flagCrit) == 0 {
			f.state[idx] |= flagCrit
		}
	}
}

// pairSteepest pairs cell idx, at refined coordinates p, with the
// steepest of its unassigned same-stratum cofacets for which it is the
// only unassigned facet, or marks it critical when there is none.
//
// Steepest means smallest in the SoS order. All cofacets of idx contain
// idx's vertices and add disjoint sets of their own, so their
// descending rank sequences first differ where the highest added vertex
// sits: comparing that one rank (farRank) is comparing the sequences.
func (f *Field) pairSteepest(idx int, p [3]int) {
	c := f.C
	step := [3]int{1, c.NX, c.NX * c.NY}
	ext := [3]int{c.NX, c.NY, c.NZ}
	sp := f.stratum(p)
	best := -1
	var bestRank int32
	for a := 0; a < 3; a++ {
		if p[a]&1 != 0 {
			continue // cofacets lie along the cell's even axes
		}
		for s := -1; s <= 1; s += 2 {
			q := p
			q[a] += s
			if q[a] < 0 || q[a] >= ext[a] {
				continue
			}
			co := idx + s*step[a]
			f.Work.PairTests++
			if f.state[co]&(flagPaired|flagCrit) != 0 {
				continue
			}
			if f.stratum(q) != sp {
				continue // boundary restriction
			}
			if !f.soleFacet(co, idx, a, s, p, step) {
				continue
			}
			if r := f.farRank(p, a, s); best < 0 || r < bestRank {
				best, bestRank = co, r
			}
		}
	}
	if best < 0 {
		f.state[idx] |= flagCrit
		return
	}
	f.pair(idx, best)
}

// farRank returns the highest rank among the vertices the cofacet of
// the cell at p along axis a, side s, adds to the cell: the cell's
// vertex box moved one vertex step along a.
func (f *Field) farRank(p [3]int, a, s int) int32 {
	c := f.C
	nvx, nvy := (c.NX+1)/2, (c.NY+1)/2
	lo := [3]int{p[0] / 2, p[1] / 2, p[2] / 2}
	hi := [3]int{(p[0] + 1) / 2, (p[1] + 1) / 2, (p[2] + 1) / 2}
	lo[a] += s
	hi[a] += s
	top := int32(-1)
	for vz := lo[2]; vz <= hi[2]; vz++ {
		for vy := lo[1]; vy <= hi[1]; vy++ {
			for vx := lo[0]; vx <= hi[0]; vx++ {
				top = max(top, f.rank[vx+vy*nvx+vz*nvx*nvy])
			}
		}
	}
	return top
}

// soleFacet reports whether idx (at refined coordinates p) is the only
// unassigned facet of its cofacet co = idx + s*step[a]. The facets of
// co are idx and its mirror co + s*step[a] along axis a, plus the two
// neighbours of co along each axis the cell idx already spans.
func (f *Field) soleFacet(co, idx, a, s int, p, step [3]int) bool {
	const assigned = flagPaired | flagCrit
	if f.state[co+s*step[a]]&assigned == 0 {
		return false
	}
	for b := 0; b < 3; b++ {
		if p[b]&1 == 0 {
			continue
		}
		if f.state[co-step[b]]&assigned == 0 || f.state[co+step[b]]&assigned == 0 {
			return false
		}
	}
	return true
}

// buildRanks fills f.rank with every vertex's position in the SoS
// vertex order and returns the inverse permutation (rank -> vertex).
// One slices.Sort of packed uint64 keys does it: orderable value bits
// in the high half, local vertex index in the low half. Inside a
// box-shaped block, local index order is global-id order, so the packed
// order is exactly the (value, global id) order of cube.VertKey.Less.
// The key buffer is dropped on return; only the two int32 tables stay.
func (f *Field) buildRanks(pool *kernel.Pool) []int32 {
	data := f.C.Samples()
	keys := make([]uint64, len(data))
	vertexKeysKernel(data, keys, pool)
	slices.Sort(keys)
	f.rank = make([]int32, len(keys))
	order := make([]int32, len(keys))
	for r, k := range keys {
		v := int32(uint32(k))
		order[r] = v
		f.rank[v] = int32(r)
	}
	return order
}

// starDir is one d-cell incident to a vertex, as offsets from that
// vertex: refined coordinates (components in {-1, 0, +1}, d of them
// nonzero), refined cell index, and the vertex index deltas of the
// cell's 2^d - 1 other vertices.
type starDir struct {
	o    [3]int
	cell int
	nv   int
	vert [3]int
}

// starDirs lists the d-cells (d ≤ 2) incident to a vertex of a block
// with vertex extents nvx×nvy and refined extents nx×ny: 1 for d = 0,
// 6 edges for d = 1, 12 quads for d = 2.
func starDirs(nvx, nvy, nx, ny, d int) []starDir {
	var dirs []starDir
	for oz := -1; oz <= 1; oz++ {
		for oy := -1; oy <= 1; oy++ {
			for ox := -1; ox <= 1; ox++ {
				o := [3]int{ox, oy, oz}
				if nonzero(o) != d {
					continue
				}
				sd := starDir{o: o, cell: ox + oy*nx + oz*nx*ny}
				// Every nonempty sub-offset of o is another vertex.
				for sub := 1; sub < 8; sub++ {
					so := [3]int{ox * (sub & 1), oy * (sub >> 1 & 1), oz * (sub >> 2 & 1)}
					if nonzero(so) != bits.OnesCount(uint(sub)) {
						continue // sub steps along an axis the cell does not span
					}
					sd.vert[sd.nv] = so[0] + so[1]*nvx + so[2]*nvx*nvy
					sd.nv++
				}
				dirs = append(dirs, sd)
			}
		}
	}
	return dirs
}

func nonzero(o [3]int) int {
	n := 0
	for _, x := range o {
		if x != 0 {
			n++
		}
	}
	return n
}

// starCell is one cell of a vertex's lower star: its refined index and
// coordinates, and its descending vertex rank sequence with the top
// entry — the star's vertex, shared by all of them — left out.
type starCell struct {
	idx int32
	seq [3]int32
	p   [3]int
}

// lowerStar fills star with the cells of dirs around the vertex at
// (vx, vy, vz) whose highest-ranked vertex is that vertex, ascending in
// the SoS order, and returns their count. A cell is rejected as soon as
// one of its other vertices outranks the centre.
func (f *Field) lowerStar(vx, vy, vz int, dirs []starDir, star *[12]starCell) int {
	c := f.C
	nvx, nvy, nvz := (c.NX+1)/2, (c.NY+1)/2, (c.NZ+1)/2
	v := vx + vy*nvx + vz*nvx*nvy
	rv := f.rank[v]
	x, y, z := 2*vx, 2*vy, 2*vz
	base := x + y*c.NX + z*c.NX*c.NY
	ns := 0
next:
	for k := range dirs {
		sd := &dirs[k]
		if uint(vx+sd.o[0]) >= uint(nvx) || uint(vy+sd.o[1]) >= uint(nvy) || uint(vz+sd.o[2]) >= uint(nvz) {
			continue
		}
		seq := [3]int32{-1, -1, -1}
		for j := 0; j < sd.nv; j++ {
			r := f.rank[v+sd.vert[j]]
			if r > rv {
				continue next
			}
			i := j
			for i > 0 && seq[i-1] < r {
				seq[i] = seq[i-1]
				i--
			}
			seq[i] = r
		}
		// Insertion sort, ascending by rank sequence.
		i := ns
		for i > 0 && seqLess(seq[:], star[i-1].seq[:]) {
			star[i] = star[i-1]
			i--
		}
		star[i] = starCell{
			idx: int32(base + sd.cell),
			seq: seq,
			p:   [3]int{x + sd.o[0], y + sd.o[1], z + sd.o[2]},
		}
		ns++
	}
	return ns
}

// seqLess orders two equal-length descending rank sequences
// lexicographically: the SoS order of the cells they belong to.
func seqLess(a, b []int32) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// cellsOfDim counts the d-cells of a block with vertex extents
// nvx×nvy×nvz: along each axis a cell spans one of n-1 intervals or
// sits at one of n vertex positions.
func cellsOfDim(nvx, nvy, nvz, d int) int {
	n := [3]int{nvx, nvy, nvz}
	total := 0
	for mask := 0; mask < 8; mask++ {
		if bits.OnesCount(uint(mask)) != d {
			continue
		}
		p := 1
		for a, na := range n {
			if mask>>a&1 != 0 {
				na--
			}
			p *= na
		}
		total += p
	}
	return total
}
