package merge

import (
	"testing"
	"testing/quick"
)

func TestFullSchedules(t *testing.T) {
	cases := []struct {
		nblocks int
		want    []int
	}{
		{1, nil},
		{2, []int{2}},
		{4, []int{4}},
		{8, []int{8}},
		{16, []int{2, 8}},
		{64, []int{8, 8}},
		{256, []int{4, 8, 8}},
		{2048, []int{4, 8, 8, 8}},
		{8192, []int{2, 8, 8, 8, 8}},
		{32768, []int{8, 8, 8, 8, 8}},
	}
	for _, c := range cases {
		got := Full(c.nblocks)
		if len(got.Radices) != len(c.want) {
			t.Fatalf("Full(%d) = %v, want %v", c.nblocks, got.Radices, c.want)
		}
		for i := range c.want {
			if got.Radices[i] != c.want[i] {
				t.Fatalf("Full(%d) = %v, want %v", c.nblocks, got.Radices, c.want)
			}
		}
		if err := got.Validate(c.nblocks); err != nil {
			t.Fatalf("Full(%d) invalid: %v", c.nblocks, err)
		}
		if c.nblocks > 1 && got.Reduction() != c.nblocks {
			t.Fatalf("Full(%d) reduces by %d", c.nblocks, got.Reduction())
		}
	}
}

func TestPartial(t *testing.T) {
	s := Partial(32768, 2)
	if len(s.Radices) != 2 || s.Radices[0] != 8 || s.Radices[1] != 8 {
		t.Fatalf("Partial(32768, 2) = %v", s.Radices)
	}
	if got := len(s.Survivors(32768)); got != 512 {
		t.Fatalf("Partial(32768, 2) leaves %d blocks, want 512", got)
	}
	// Requesting more rounds than a full merge needs just gives the
	// full merge.
	s = Partial(8, 5)
	if len(s.Radices) != 1 || s.Radices[0] != 8 {
		t.Fatalf("Partial(8, 5) = %v", s.Radices)
	}
}

func TestValidateRejects(t *testing.T) {
	if err := (Schedule{Radices: []int{3}}).Validate(16); err == nil {
		t.Fatal("accepted radix 3")
	}
	if err := (Schedule{Radices: []int{8, 8}}).Validate(16); err == nil {
		t.Fatal("accepted over-reduction")
	}
	if err := (Schedule{Radices: []int{4, 4}}).Validate(16); err != nil {
		t.Fatal(err)
	}
}

// TestFullValidatesAnyBlockCount: the full-merge schedule of every block
// count, powers of two or not, validates and merges down to block 0.
func TestFullValidatesAnyBlockCount(t *testing.T) {
	for n := 1; n <= 64; n++ {
		s := Full(n)
		if err := s.Validate(n); err != nil {
			t.Fatalf("Full(%d) = %v: %v", n, s.Radices, err)
		}
		if got := s.Survivors(n); len(got) != 1 || got[0] != 0 {
			t.Fatalf("Full(%d) = %v leaves %v", n, s.Radices, got)
		}
	}
}

// TestRoundGroupsPartition: every surviving block appears in exactly one
// group per round; roots survive into the next round.
func TestRoundGroupsPartition(t *testing.T) {
	f := func(e uint8, seed uint8) bool {
		exp := 1 + int(e)%11 // 2 .. 2048 blocks
		nblocks := 1 << exp
		s := Full(nblocks)
		surviving := make(map[int]bool)
		for b := 0; b < nblocks; b++ {
			surviving[b] = true
		}
		for round := range s.Radices {
			seen := make(map[int]bool)
			groups := s.RoundGroups(nblocks, round)
			next := make(map[int]bool)
			for _, g := range groups {
				if g.Members[0] != g.Root {
					return false
				}
				for _, m := range g.Members {
					if !surviving[m] || seen[m] {
						return false
					}
					seen[m] = true
				}
				next[g.Root] = true
			}
			if len(seen) != len(surviving) {
				return false
			}
			surviving = next
		}
		return len(surviving) == 1 && surviving[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSurvivorsMatchReduction(t *testing.T) {
	for _, nblocks := range []int{8, 64, 256, 2048} {
		s := Full(nblocks)
		for rounds := 0; rounds <= len(s.Radices); rounds++ {
			partial := Schedule{Radices: s.Radices[:rounds]}
			got := len(partial.Survivors(nblocks))
			want := nblocks / partial.Reduction()
			if got != want {
				t.Fatalf("nblocks=%d rounds=%d: %d survivors, want %d", nblocks, rounds, got, want)
			}
		}
	}
}

func TestRoundGroupsNonPowerOfTwo(t *testing.T) {
	// 10 blocks, one radix-4 round: groups {0..3}, {4..7}, {8, 9}.
	s := Schedule{Radices: []int{4}}
	groups := s.RoundGroups(10, 0)
	if len(groups) != 3 {
		t.Fatalf("%d groups", len(groups))
	}
	if len(groups[2].Members) != 2 || groups[2].Root != 8 {
		t.Fatalf("last group %+v", groups[2])
	}
}
