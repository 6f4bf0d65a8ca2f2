package space

import "sort"

// IntersectCandidates returns the sorted intersection of candidate-room sets
// for the given regions (the R_is set of Section 4.1). With no regions it
// returns nil.
func (b *Building) IntersectCandidates(regions []RegionID) []RoomID {
	if len(regions) == 0 {
		return nil
	}
	counts := make(map[RoomID]int)
	for _, g := range regions {
		for _, r := range b.CandidateRooms(g) {
			counts[r]++
		}
	}
	var out []RoomID
	for r, c := range counts {
		if c == len(regions) {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
