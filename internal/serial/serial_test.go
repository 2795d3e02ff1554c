package serial

import (
	"fmt"
	"math"
	"testing"

	"parms/internal/cube"
	"parms/internal/gradient"
	"parms/internal/grid"
	"parms/internal/synth"
)

// TestOracleAgreesWithOptimized cross-checks the optimized gradient
// implementation against the independently coded reference, cell by
// cell: identical critical sets and identical pairings. Besides
// continuous fields, where ties almost never occur, it runs tie-heavy
// volumes drawn from {-0, +0, 1} on odd and non-cubic grids, where
// nearly every order decision falls to the vertex-id tie-break.
func TestOracleAgreesWithOptimized(t *testing.T) {
	cases := []*grid.Volume{
		synth.Random(grid.Dims{7, 6, 5}, 1),
		synth.Random(grid.Dims{6, 6, 6}, 2),
		synth.Sinusoid(9, 2),
		synth.Ramp(grid.Dims{5, 5, 5}),
		tieVolume(grid.Dims{7, 6, 5}, []byte("plateaus")),
		tieVolume(grid.Dims{2, 9, 3}, []byte{0, 1, 2, 2, 1, 0, 0, 2}),
		tieVolume(grid.Dims{5, 5, 5}, []byte{1}),
		tieVolume(grid.Dims{8, 3, 7}, []byte("signed zeros tie by vertex id")),
	}
	for ci, vol := range cases {
		if err := oracleMismatch(vol); err != nil {
			t.Fatalf("case %d (%v): %v", ci, vol.Dims, err)
		}
	}
}

// FuzzGradientOrder runs the oracle comparison on fuzzed tie-heavy
// volumes: each input byte picks one sample from {-0, +0, 1} (cycling
// through the bytes when the grid has more vertices), on a grid of 2..9
// vertices per axis. The seed corpus lives in
// testdata/fuzz/FuzzGradientOrder.
func FuzzGradientOrder(f *testing.F) {
	f.Add(uint8(7), uint8(6), uint8(5), []byte{0, 1, 2})
	f.Add(uint8(2), uint8(9), uint8(3), []byte{2, 2, 0, 1})
	f.Fuzz(func(t *testing.T, nx, ny, nz uint8, data []byte) {
		dims := grid.Dims{2 + int(nx)%8, 2 + int(ny)%8, 2 + int(nz)%8}
		if err := oracleMismatch(tieVolume(dims, data)); err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
	})
}

// tieVolume fills a volume from the three-value alphabet {-0, +0, 1},
// sample i taking data[i mod len(data)] mod 3 (all +0 for empty data).
func tieVolume(dims grid.Dims, data []byte) *grid.Volume {
	alphabet := [3]float32{float32(math.Copysign(0, -1)), 0, 1}
	vol := grid.NewVolume(dims)
	if len(data) == 0 {
		return vol
	}
	for i := range vol.Data {
		vol.Data[i] = alphabet[data[i%len(data)]%3]
	}
	return vol
}

// oracleMismatch computes the gradient of vol with the optimized and the
// reference construction and describes the first cell whose pairing (or
// critical state) differs, or returns nil.
func oracleMismatch(vol *grid.Volume) error {
	ref := NewReferenceGradient(vol)
	block := grid.Block{Lo: [3]int{0, 0, 0}, Hi: [3]int{vol.Dims[0] - 1, vol.Dims[1] - 1, vol.Dims[2] - 1}}
	c := cube.New(vol.Dims, block, vol)
	f := gradient.Compute(c, nil)
	refCrit := ref.CriticalSet()
	for idx := 0; idx < c.NumCells(); idx++ {
		x, y, z := c.Coords(idx)
		cell := [3]int{x, y, z}
		if refCrit[cell] != f.IsCritical(idx) {
			return fmt.Errorf("cell %v critical=%v in reference, %v in optimized",
				cell, refCrit[cell], f.IsCritical(idx))
		}
		refPair, refOK := ref.PairOf(x, y, z)
		optPairIdx, optOK := f.PairedWith(idx)
		if refOK != optOK {
			return fmt.Errorf("cell %v paired=%v in reference, %v in optimized", cell, refOK, optOK)
		}
		if refOK {
			px, py, pz := c.Coords(optPairIdx)
			if refPair != [3]int{px, py, pz} {
				return fmt.Errorf("cell %v paired with %v in reference, (%d,%d,%d) in optimized",
					cell, refPair, px, py, pz)
			}
		}
	}
	return nil
}

func TestComputeSerialBaseline(t *testing.T) {
	vol := synth.Sinusoid(17, 2)
	ms := Compute(vol, 0.3)
	if err := ms.Validate(); err != nil {
		t.Fatal(err)
	}
	if ms.EulerCharacteristic() != 1 {
		t.Fatalf("Euler characteristic %d", ms.EulerCharacteristic())
	}
	nodes, _ := ms.AliveCounts()
	if nodes[3] == 0 {
		t.Fatalf("no maxima survive: %v", nodes)
	}
	// Unsimplified run keeps more nodes.
	raw := Compute(vol, 0)
	if raw.NumAliveNodes() < ms.NumAliveNodes() {
		t.Fatal("simplification increased node count")
	}
}
