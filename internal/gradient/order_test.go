package gradient

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"parms/internal/cube"
	"parms/internal/grid"
	"parms/internal/synth"
)

// tieVolume draws every sample from {-0, +0, 1}: plateaus everywhere,
// so almost every order decision falls to the vertex-id tie-break, and
// -0/+0 must compare equal.
func tieVolume(dims grid.Dims, seed int64) *grid.Volume {
	rng := rand.New(rand.NewSource(seed))
	vol := grid.NewVolume(dims)
	alphabet := []float32{float32(math.Copysign(0, -1)), 0, 1}
	for i := range vol.Data {
		vol.Data[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return vol
}

// orderCases are complexes whose rank order is checked against
// cube.Compare: whole volumes, and interior blocks of decompositions
// (non-zero Lo), where local vertex indices differ from global ids.
func orderCases(t *testing.T) []*cube.Complex {
	t.Helper()
	var out []*cube.Complex
	for _, vol := range []*grid.Volume{
		tieVolume(grid.Dims{7, 6, 5}, 1),
		tieVolume(grid.Dims{2, 9, 3}, 2),
		synth.Random(grid.Dims{6, 7, 8}, 3),
		synth.Sinusoid(9, 2),
	} {
		out = append(out, cube.New(vol.Dims, fullBlock(vol.Dims), vol))
	}
	vol := tieVolume(grid.Dims{13, 11, 9}, 4)
	dec, err := grid.Decompose(vol.Dims, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range dec.Blocks[len(dec.Blocks)-2:] {
		out = append(out, cube.New(vol.Dims, b, vol.SubVolume(b.Lo, b.Hi)))
	}
	return out
}

// TestRankSeqAgreesWithCompare: comparing the descending vertex rank
// sequences of two same-dimension cells gives exactly cube.Compare, the
// specification of the simulation-of-simplicity order.
func TestRankSeqAgreesWithCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for ci, c := range orderCases(t) {
		f := &Field{C: c}
		f.buildRanks(nil)
		byDim := [4][]int{}
		for idx := 0; idx < c.NumCells(); idx++ {
			byDim[c.Dim(idx)] = append(byDim[c.Dim(idx)], idx)
		}
		var sa, sb [8]int32
		for trial := 0; trial < 4000; trial++ {
			cells := byDim[trial%4]
			a, b := cells[rng.Intn(len(cells))], cells[rng.Intn(len(cells))]
			pa, pb := coords(c, a), coords(c, b)
			na, nb := f.rankSeq(pa, &sa), f.rankSeq(pb, &sb)
			got := 0
			switch {
			case seqLess(sa[:na], sb[:nb]):
				got = -1
			case seqLess(sb[:nb], sa[:na]):
				got = 1
			}
			if want := c.Compare(a, b); got != want {
				t.Fatalf("case %d: cells %d, %d: rank order %d, Compare %d", ci, a, b, got, want)
			}
		}
	}
}

// TestStarWalkIsSoSOrder: walking the vertices in rank order and each
// vertex's lower star in rank-sequence order visits every d-cell
// exactly once, in the order a sort by cube.Compare gives.
func TestStarWalkIsSoSOrder(t *testing.T) {
	for ci, c := range orderCases(t) {
		f := &Field{C: c}
		order := f.buildRanks(nil)
		nvx, nvy := (c.NX+1)/2, (c.NY+1)/2
		var star [12]starCell
		for d := 0; d <= 2; d++ {
			var walked []int
			dirs := starDirs(nvx, nvy, c.NX, c.NY, d)
			for _, v := range order {
				vx, vy, vz := int(v)%nvx, int(v)/nvx%nvy, int(v)/(nvx*nvy)
				for _, sc := range star[:f.lowerStar(vx, vy, vz, dirs, &star)] {
					walked = append(walked, int(sc.idx))
				}
			}
			var sorted []int
			for idx := 0; idx < c.NumCells(); idx++ {
				if c.Dim(idx) == d {
					sorted = append(sorted, idx)
				}
			}
			sort.Slice(sorted, func(i, j int) bool { return c.Compare(sorted[i], sorted[j]) < 0 })
			if len(walked) != len(sorted) || len(sorted) != cellsOfDim(nvx, nvy, (c.NZ+1)/2, d) {
				t.Fatalf("case %d dim %d: walked %d cells, %d exist", ci, d, len(walked), len(sorted))
			}
			for i := range sorted {
				if walked[i] != sorted[i] {
					t.Fatalf("case %d dim %d: position %d walks cell %d, SoS order has %d",
						ci, d, i, walked[i], sorted[i])
				}
			}
		}
	}
}

func coords(c *cube.Complex, idx int) [3]int {
	x, y, z := c.Coords(idx)
	return [3]int{x, y, z}
}

// rankSeq writes the ranks of the vertices of the cell at refined
// coordinates p to buf in descending order and returns how many there
// are (2^dim).
func (f *Field) rankSeq(p [3]int, buf *[8]int32) int {
	nvx, nvy := (f.C.NX+1)/2, (f.C.NY+1)/2
	m := 0
	for vz := p[2] / 2; vz <= (p[2]+1)/2; vz++ {
		for vy := p[1] / 2; vy <= (p[1]+1)/2; vy++ {
			for vx := p[0] / 2; vx <= (p[0]+1)/2; vx++ {
				buf[m] = f.rank[vx+vy*nvx+vz*nvx*nvy]
				m++
			}
		}
	}
	sort.Slice(buf[:m], func(i, j int) bool { return buf[i] > buf[j] })
	return m
}

// TestFarRankAgreesWithCompare: the steepest-descent shortcut — order
// two cofacets of one cell by the highest rank each adds — agrees with
// cube.Compare on every pair of cofacets of every cell.
func TestFarRankAgreesWithCompare(t *testing.T) {
	for ci, c := range orderCases(t) {
		f := &Field{C: c}
		f.buildRanks(nil)
		var buf [6]int
		for idx := 0; idx < c.NumCells(); idx++ {
			p := coords(c, idx)
			cof := c.Cofacets(idx, buf[:0])
			for i, a := range cof {
				for _, b := range cof[i+1:] {
					aa, sa := axisSide(c, idx, a)
					ab, sb := axisSide(c, idx, b)
					ra, rb := f.farRank(p, aa, sa), f.farRank(p, ab, sb)
					if got, want := ra < rb, c.Compare(a, b) < 0; got != want || ra == rb {
						t.Fatalf("case %d: cofacets %d, %d of %d: far ranks %d, %d; Compare %d",
							ci, a, b, idx, ra, rb, c.Compare(a, b))
					}
				}
			}
		}
	}
}

// axisSide returns the axis and side along which cofacet co lies from
// cell idx.
func axisSide(c *cube.Complex, idx, co int) (int, int) {
	d := co - idx
	for a, step := range []int{1, c.NX, c.NX * c.NY} {
		if d == step {
			return a, 1
		}
		if d == -step {
			return a, -1
		}
	}
	panic("not a cofacet")
}

// TestOrderedBits: the key bits sort exactly as the float values do,
// with -0 folded onto +0.
func TestOrderedBits(t *testing.T) {
	vals := []float32{float32(math.Inf(-1)), -math.MaxFloat32, -1, -math.SmallestNonzeroFloat32,
		0, math.SmallestNonzeroFloat32, 1, math.MaxFloat32, float32(math.Inf(1))}
	for i := 1; i < len(vals); i++ {
		if orderedBits(vals[i-1]) >= orderedBits(vals[i]) {
			t.Errorf("orderedBits(%g) >= orderedBits(%g)", vals[i-1], vals[i])
		}
	}
	if negZero := float32(math.Copysign(0, -1)); orderedBits(negZero) != orderedBits(0) {
		t.Errorf("orderedBits(-0) = %#x, orderedBits(+0) = %#x", orderedBits(negZero), orderedBits(0))
	}
}
