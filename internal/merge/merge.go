// Package merge implements the second stage of the paper's algorithm:
// merging per-block MS complexes down to a smaller number of output
// blocks through configurable rounds of radix-2, radix-4 or radix-8
// reductions (section IV-F). The schedule is inspired by the Radix-k
// image compositing algorithm: each round partitions the surviving
// blocks into groups of the round's radix; the lowest block of each
// group is the root, the other members send their serialized complexes
// to it, and the root glues them, reclassifies boundary nodes against
// the merged region, and re-runs persistence simplification.
package merge

import (
	"fmt"
)

// Schedule is the per-round radices of a merge.
type Schedule struct {
	Radices []int
}

// Full returns the paper's recommended schedule for a complete merge of
// nblocks down to one block: radix-8 rounds, with any remainder radix
// placed in the earliest round ("smaller radices are slightly better in
// early rounds rather than later"). For example 2048 blocks merge in
// four rounds [4 8 8 8] and 8192 in five [2 8 8 8 8]. A block count
// that is not a power of two is rounded up to one; the last group of a
// round is then short.
func Full(nblocks int) Schedule {
	if nblocks <= 1 {
		return Schedule{}
	}
	e := 0
	for 1<<e < nblocks {
		e++
	}
	rounds := (e + 2) / 3
	first := e - 3*(rounds-1)
	radices := make([]int, 0, rounds)
	radices = append(radices, 1<<first)
	for i := 1; i < rounds; i++ {
		radices = append(radices, 8)
	}
	return Schedule{Radices: radices}
}

// Partial returns a schedule of n rounds of radix-8 (or smaller when
// nblocks runs out), the paper's partial-merge configuration.
func Partial(nblocks, rounds int) Schedule {
	s := Full(nblocks)
	if rounds < len(s.Radices) {
		// Keep the *last* rounds radix-8: drop leading rounds.
		s.Radices = s.Radices[len(s.Radices)-rounds:]
	}
	return s
}

// Validate checks the schedule against a block count: radices must be
// 2, 4 or 8 (the paper's restriction), and a round of radix k is
// rejected when at most k/2 blocks enter it, since radix k/2 would then
// build the same groups. The last group of a round may be short, so
// block counts that are not powers of two merge down to one block.
func (s Schedule) Validate(nblocks int) error {
	left := nblocks
	for _, r := range s.Radices {
		if r != 2 && r != 4 && r != 8 {
			return fmt.Errorf("merge: radix %d not in {2,4,8}", r)
		}
		if r/2 >= left {
			return fmt.Errorf("merge: schedule %v reduces by %d× but only %d blocks enter that round",
				s.Radices, r, left)
		}
		left = (left + r - 1) / r
	}
	return nil
}

// Reduction returns the total factor by which the schedule divides the
// block count.
func (s Schedule) Reduction() int {
	product := 1
	for _, r := range s.Radices {
		product *= r
	}
	return product
}

// Group is one communicating group of a merge round: Members send to
// Root (Root is also listed first in Members).
type Group struct {
	Root    int
	Members []int
}

// Stride returns the id spacing of surviving blocks before the given
// round (the product of earlier radices).
func (s Schedule) Stride(round int) int {
	stride := 1
	for i := 0; i < round; i++ {
		stride *= s.Radices[i]
	}
	return stride
}

// RoundGroups partitions the blocks surviving into round (0-based) into
// groups of that round's radix. Blocks surviving round r are those whose
// id is a multiple of the product of radices of rounds 0..r-1.
func (s Schedule) RoundGroups(nblocks, round int) []Group {
	stride := s.Stride(round)
	radix := s.Radices[round]
	var groups []Group
	for root := 0; root < nblocks; root += stride * radix {
		g := Group{Root: root}
		for j := 0; j < radix; j++ {
			m := root + j*stride
			if m < nblocks {
				g.Members = append(g.Members, m)
			}
		}
		groups = append(groups, g)
	}
	return groups
}

// Survivors returns the block ids that remain after all rounds.
func (s Schedule) Survivors(nblocks int) []int {
	stride := s.Stride(len(s.Radices))
	var out []int
	for b := 0; b < nblocks; b += stride {
		out = append(out, b)
	}
	return out
}
