package main

import (
	"testing"

	"parms/internal/grid"
)

func TestParseMerge(t *testing.T) {
	cases := []struct {
		in      string
		nblocks int
		want    []int
		wantErr bool
	}{
		{"none", 64, nil, false},
		{"", 64, nil, false},
		{"full", 64, []int{8, 8}, false},
		{"full", 2048, []int{4, 8, 8, 8}, false},
		{"1", 64, []int{8}, false},
		{"2", 64, []int{8, 8}, false},
		{"4,8,8", 256, []int{4, 8, 8}, false},
		{"2,2", 4, []int{2, 2}, false},
		{"3", 64, []int{8, 8}, false}, // "3" parses as a round count, clamped to the full merge
		{"4,9", 64, nil, true},        // radix 9 invalid
		{"8,8,8", 64, nil, true},      // over-reduction
		{"x,y", 64, nil, true},
	}
	for _, c := range cases {
		got, err := parseMerge(c.in, c.nblocks)
		if c.wantErr {
			if err == nil {
				t.Errorf("parseMerge(%q, %d): expected error", c.in, c.nblocks)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseMerge(%q, %d): %v", c.in, c.nblocks, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("parseMerge(%q, %d) = %v, want %v", c.in, c.nblocks, got, c.want)
			continue
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("parseMerge(%q, %d) = %v, want %v", c.in, c.nblocks, got, c.want)
				break
			}
		}
	}
}

// TestRangeOf pins the value range msc scales -persistence by: the
// minimum and maximum sample, or (0, 0) for no samples.
func TestRangeOf(t *testing.T) {
	vol := &grid.Volume{Dims: grid.Dims{5, 1, 1}, Data: []float32{3, -1, 4, 1, 5}}
	lo, hi := vol.Range()
	if lo != -1 || hi != 5 {
		t.Fatalf("range [%v, %v]", lo, hi)
	}
	lo, hi = (&grid.Volume{}).Range()
	if lo != 0 || hi != 0 {
		t.Fatalf("empty range [%v, %v]", lo, hi)
	}
}
