package cube

import (
	"testing"
	"testing/quick"

	"parms/internal/grid"
)

func testComplex(dims grid.Dims) *Complex {
	vol := grid.NewVolume(dims)
	for i := range vol.Data {
		// A deterministic, collision-free pseudo-random field.
		vol.Data[i] = float32((i*2654435761)%1000003) / 1000003
	}
	block := grid.Block{ID: 0, Lo: [3]int{0, 0, 0}, Hi: [3]int{dims[0] - 1, dims[1] - 1, dims[2] - 1}}
	return New(dims, block, vol)
}

func TestCellCounts(t *testing.T) {
	c := testComplex(grid.Dims{4, 5, 6})
	if c.NumCells() != 7*9*11 {
		t.Fatalf("cells %d", c.NumCells())
	}
	var counts [4]int
	for i := 0; i < c.NumCells(); i++ {
		counts[c.Dim(i)]++
	}
	// Cubical complex on a 4×5×6 vertex grid.
	wantVerts := 4 * 5 * 6
	wantVoxels := 3 * 4 * 5
	if counts[0] != wantVerts || counts[3] != wantVoxels {
		t.Fatalf("counts %v", counts)
	}
	// Euler characteristic of a solid box via cell counts.
	if chi := counts[0] - counts[1] + counts[2] - counts[3]; chi != 1 {
		t.Fatalf("cell Euler characteristic %d", chi)
	}
}

func TestFacetCofacetDuality(t *testing.T) {
	c := testComplex(grid.Dims{4, 4, 4})
	var fb, cb [6]int
	for idx := 0; idx < c.NumCells(); idx++ {
		for _, f := range c.Facets(idx, fb[:0]) {
			if c.Dim(f) != c.Dim(idx)-1 {
				t.Fatalf("facet of %d-cell has dim %d", c.Dim(idx), c.Dim(f))
			}
			found := false
			for _, back := range c.Cofacets(f, cb[:0]) {
				if back == idx {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("cell %d not among cofacets of its facet %d", idx, f)
			}
		}
		for _, co := range c.Cofacets(idx, cb[:0]) {
			if c.Dim(co) != c.Dim(idx)+1 {
				t.Fatalf("cofacet of %d-cell has dim %d", c.Dim(idx), c.Dim(co))
			}
		}
	}
}

func TestFacetCountsByDim(t *testing.T) {
	c := testComplex(grid.Dims{5, 5, 5})
	var fb [6]int
	for idx := 0; idx < c.NumCells(); idx++ {
		n := len(c.Facets(idx, fb[:0]))
		if n != 2*c.Dim(idx) {
			t.Fatalf("%d-cell has %d facets", c.Dim(idx), n)
		}
	}
}

func TestVertKeysSortedDistinct(t *testing.T) {
	c := testComplex(grid.Dims{4, 4, 4})
	var buf [8]VertKey
	for idx := 0; idx < c.NumCells(); idx++ {
		keys := c.VertKeys(idx, buf[:])
		if len(keys) != 1<<c.Dim(idx) {
			t.Fatalf("%d-cell has %d vertices", c.Dim(idx), len(keys))
		}
		for i := 1; i < len(keys); i++ {
			if keys[i-1].Less(keys[i]) {
				t.Fatalf("keys of cell %d not descending", idx)
			}
			if keys[i-1] == keys[i] {
				t.Fatalf("duplicate vertex key in cell %d", idx)
			}
		}
	}
}

func TestCompareTotalOrder(t *testing.T) {
	c := testComplex(grid.Dims{4, 4, 4})
	f := func(a, b uint16) bool {
		ca := int(a) % c.NumCells()
		cb := int(b) % c.NumCells()
		// Antisymmetry and reflexivity, restricted to equal dimension
		// (the order the gradient construction uses).
		if c.Dim(ca) != c.Dim(cb) {
			return true
		}
		cmp := c.Compare(ca, cb)
		if ca == cb {
			return cmp == 0
		}
		return cmp != 0 && cmp == -c.Compare(cb, ca)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalLocalRoundTrip(t *testing.T) {
	dims := grid.Dims{12, 10, 8}
	block := grid.Block{ID: 3, Lo: [3]int{2, 1, 3}, Hi: [3]int{7, 6, 7}}
	vol := grid.NewVolume(block.Dims())
	c := New(dims, block, vol)
	for idx := 0; idx < c.NumCells(); idx++ {
		back, ok := c.LocalFromGlobal(c.GlobalAddr(idx))
		if !ok || back != idx {
			t.Fatalf("cell %d round trip gave %d, %v", idx, back, ok)
		}
	}
	// An address outside the block must be rejected.
	if _, ok := c.LocalFromGlobal(c.Space.Encode(0, 0, 0)); ok {
		t.Fatal("accepted cell outside block")
	}
}

func TestValueIsMaxOfVertices(t *testing.T) {
	c := testComplex(grid.Dims{4, 4, 4})
	var buf [8]VertKey
	for idx := 0; idx < c.NumCells(); idx++ {
		keys := c.VertKeys(idx, buf[:])
		max := keys[0].Val
		for _, k := range keys {
			if k.Val > max {
				t.Fatalf("VertKeys[0] not maximal for cell %d", idx)
			}
		}
		if c.Value(idx) != max {
			t.Fatalf("Value(%d) = %v, want %v", idx, c.Value(idx), max)
		}
	}
}

func TestOnBlockFace(t *testing.T) {
	c := testComplex(grid.Dims{4, 4, 4})
	if !c.OnBlockFace(c.Index(0, 3, 2), 0, 0) {
		t.Fatal("low-x cell not on low-x face")
	}
	if c.OnBlockFace(c.Index(1, 3, 2), 0, 0) {
		t.Fatal("interior-x cell reported on low-x face")
	}
	if !c.OnBlockFace(c.Index(c.NX-1, 0, 0), 0, 1) {
		t.Fatal("high-x cell not on high-x face")
	}
}
