package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the middle two for
// an even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the sample at the highest percentile that still
// leaves at least minBeyond samples above it, and that percentile.  With
// n sorted samples that is rank n-minBeyond, percentile
// 100*(n-minBeyond)/n.  With minBeyond or fewer samples no percentile
// qualifies: it returns the maximum, percentile 100, ok=false.
func tailPercentile(xs []float64, minBeyond int) (v, pct float64, ok bool) {
	if len(xs) == 0 {
		return math.NaN(), 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	rank := n - minBeyond
	if rank < 1 {
		return s[n-1], 100, false
	}
	return s[rank-1], 100 * float64(rank) / float64(n), true
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.  Children are clipped to the parent and
// overlapping children (concurrent runs) are counted once, so a parent
// waiting on two parallel children for its whole life has self time 0.
func selfTimes(spans []span) []float64 {
	kids := make(map[int][][2]float64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered returns the length of [lo,hi] covered by the union of ivs.
func covered(lo, hi float64, ivs [][2]float64) float64 {
	var clipped [][2]float64
	for _, iv := range ivs {
		a, b := math.Max(iv[0], lo), math.Min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]float64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end float64
	end = math.Inf(-1)
	for _, iv := range clipped {
		if iv[0] > end {
			total += iv[1] - iv[0]
			end = iv[1]
		} else if iv[1] > end {
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}

// ladderStep is one rung of the layer ladder: the host cost of a
// configuration per guest instruction, and the rung it adds one layer
// to ("" for the native base).
type ladderStep struct {
	Name       string
	Base       string
	NsPerInstr float64
}

// ladderIncrements prices each rung's added layer as its cost minus its
// base rung's cost, and each rung's total as a ratio to the first
// (native) rung.  A base that is not on the ladder leaves the increment
// at the rung's whole cost.
func ladderIncrements(steps []ladderStep) (incr, ratio map[string]float64) {
	incr = make(map[string]float64, len(steps))
	ratio = make(map[string]float64, len(steps))
	byName := make(map[string]float64, len(steps))
	for _, s := range steps {
		byName[s.Name] = s.NsPerInstr
	}
	for _, s := range steps {
		incr[s.Name] = s.NsPerInstr
		if base, ok := byName[s.Base]; ok && s.Base != "" {
			incr[s.Name] = s.NsPerInstr - base
		}
		if len(steps) > 0 && steps[0].NsPerInstr > 0 {
			ratio[s.Name] = s.NsPerInstr / steps[0].NsPerInstr
		}
	}
	return incr, ratio
}

// parallelEff is the share of the scheduler's worker capacity that runs
// kept busy: busy seconds over wall seconds times worker slots.
func parallelEff(busy, wall float64, jobs int) float64 {
	if wall <= 0 || jobs <= 0 {
		return 0
	}
	return busy / (wall * float64(jobs))
}
