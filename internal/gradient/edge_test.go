package gradient

import (
	"math"
	"testing"

	"parms/internal/cube"
	"parms/internal/grid"
	"parms/internal/synth"
)

// TestFlatField: a perfectly constant field is the worst case for
// simulation of simplicity — every comparison is decided by vertex ids
// alone. The gradient must still be valid with Euler characteristic 1,
// and ideally fully collapsible (a single critical cell).
func TestFlatField(t *testing.T) {
	dims := grid.Dims{6, 6, 6}
	vol := grid.NewVolume(dims)
	for i := range vol.Data {
		vol.Data[i] = 7
	}
	f := Compute(cube.New(dims, fullBlock(dims), vol), nil)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := f.CriticalCounts()
	if euler := counts[0] - counts[1] + counts[2] - counts[3]; euler != 1 {
		t.Fatalf("Euler %d (counts %v)", euler, counts)
	}
	total := counts[0] + counts[1] + counts[2] + counts[3]
	if total > 3 {
		t.Errorf("flat field left %d critical cells %v; simulation of simplicity should collapse almost everything", total, counts)
	}
}

// TestThinDomain: a 2-voxel-thick slab exercises the degenerate
// cofacet-bound paths of the cell complex.
func TestThinDomain(t *testing.T) {
	for _, dims := range []grid.Dims{{16, 16, 2}, {2, 16, 16}, {16, 2, 16}, {2, 2, 16}} {
		vol := synth.Random(dims, 3)
		f := Compute(cube.New(dims, fullBlock(dims), vol), nil)
		if err := f.Validate(); err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		counts := f.CriticalCounts()
		if euler := counts[0] - counts[1] + counts[2] - counts[3]; euler != 1 {
			t.Fatalf("%v: Euler %d (counts %v)", dims, euler, counts)
		}
	}
}

// TestAnisotropicConsistency: shared-face determinism must hold for
// non-cubic domains and decompositions that split different axes.
func TestAnisotropicConsistency(t *testing.T) {
	dims := grid.Dims{24, 8, 6}
	vol := synth.Random(dims, 77)
	dec, err := grid.Decompose(dims, 6)
	if err != nil {
		t.Fatal(err)
	}
	fields := make([]*Field, dec.NumBlocks())
	for i, b := range dec.Blocks {
		fields[i] = Compute(cube.New(dims, b, vol.SubVolume(b.Lo, b.Hi)), dec)
		if err := fields[i].Validate(); err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
	}
	for i := range fields {
		for j := i + 1; j < len(fields); j++ {
			ci, cj := fields[i].C, fields[j].C
			for idx := 0; idx < ci.NumCells(); idx++ {
				jdx, ok := cj.LocalFromGlobal(ci.GlobalAddr(idx))
				if !ok {
					continue
				}
				if fields[i].StateByte(idx) != fields[j].StateByte(jdx) {
					t.Fatalf("blocks %d/%d disagree on a shared cell", i, j)
				}
			}
		}
	}
}

// TestByteData: the u8 sample path (hydrogen-style data) must survive
// the whole gradient stage, plateaus and all.
func TestByteData(t *testing.T) {
	vol := synth.Hydrogen(17)
	f := Compute(cube.New(vol.Dims, fullBlock(vol.Dims), vol), nil)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := f.CriticalCounts()
	if euler := counts[0] - counts[1] + counts[2] - counts[3]; euler != 1 {
		t.Fatalf("Euler %d (counts %v)", euler, counts)
	}
	if counts[3] == 0 {
		t.Fatal("hydrogen proxy should have maxima")
	}
}

// TestDeterminism: the same input must produce byte-identical gradients
// across repeated runs (no map-iteration or scheduling dependence).
func TestDeterminism(t *testing.T) {
	dims := grid.Dims{10, 10, 10}
	vol := synth.Random(dims, 13)
	dec, err := grid.Decompose(dims, 4)
	if err != nil {
		t.Fatal(err)
	}
	b := dec.Blocks[1]
	sub := vol.SubVolume(b.Lo, b.Hi)
	ref := Compute(cube.New(dims, b, sub), dec)
	for run := 0; run < 3; run++ {
		f := Compute(cube.New(dims, b, sub), dec)
		for idx := 0; idx < f.C.NumCells(); idx++ {
			if f.StateByte(idx) != ref.StateByte(idx) {
				t.Fatalf("run %d: cell %d differs", run, idx)
			}
		}
	}
}

// TestSignedZeroPlateau: -0 and +0 are the same value to the SoS order
// (cube.VertKey.Less compares them equal and breaks the tie by id), so
// a plateau of mixed-sign zeros must give the state bytes of the
// all-+0 plateau, on a whole volume and on a restricted block.
func TestSignedZeroPlateau(t *testing.T) {
	dims := grid.Dims{9, 7, 6}
	pos := grid.NewVolume(dims)
	mixed := grid.NewVolume(dims)
	for i := range pos.Data {
		if i%7 == 0 {
			pos.Data[i] = 1
		}
		mixed.Data[i] = pos.Data[i]
		if i%3 != 0 && mixed.Data[i] == 0 {
			mixed.Data[i] = float32(math.Copysign(0, -1))
		}
	}
	dec, err := grid.Decompose(dims, 4)
	if err != nil {
		t.Fatal(err)
	}
	b := dec.Blocks[1]
	for _, tc := range []struct {
		name  string
		block grid.Block
		dec   *grid.Decomposition
	}{{"whole", fullBlock(dims), nil}, {"block 1 of 4", b, dec}} {
		lo, hi := tc.block.Lo, tc.block.Hi
		fp := Compute(cube.New(dims, tc.block, pos.SubVolume(lo, hi)), tc.dec)
		fm := Compute(cube.New(dims, tc.block, mixed.SubVolume(lo, hi)), tc.dec)
		for idx := 0; idx < fp.C.NumCells(); idx++ {
			if fp.StateByte(idx) != fm.StateByte(idx) {
				t.Fatalf("%s: cell %d: +0 plateau %#x, mixed-sign plateau %#x",
					tc.name, idx, fp.StateByte(idx), fm.StateByte(idx))
			}
		}
	}
}
