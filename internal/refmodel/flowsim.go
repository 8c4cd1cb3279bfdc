package refmodel

import (
	"math"
	"sort"
)

// RefFlow is one flow in the reference max-min allocation: an ID (the
// tie-break and ordering key), the link IDs it crosses, and its
// scheduling weight (<= 0 or NaN behaves as 1, mirroring netsim).
type RefFlow struct {
	ID     int
	Path   []int
	Weight float64
}

func (f RefFlow) weight() float64 {
	if f.Weight <= 0 || f.Weight != f.Weight {
		return 1
	}
	return f.Weight
}

// MaxMinRates is the naive global reference for weighted max-min
// fairness by progressive filling over every link and flow at once —
// the always-global twin netsim's incremental FlowSim and sharded
// FleetSim are diffed against (diffcheck stage flowsim_inc).
//
// Semantics: repeatedly find the link with the smallest remaining
// capacity per unit of unfrozen weight (lowest link index on a tie),
// freeze every unfrozen flow crossing it at fairShare*weight in
// ascending flow-ID order, subtract, and repeat until no link constrains
// an unfrozen flow. Flows with an empty path (or left unfrozen because
// every link on their path lost all unfrozen weight) get rate 0 — they
// are unconstrained here and netsim treats them the same way.
//
// The iteration order is fixed (links ascending, flows ascending by ID)
// so the floating-point result is bit-for-bit reproducible; the
// optimized engine must match it exactly, not just within an epsilon.
func MaxMinRates(capacity []float64, flows []RefFlow) map[int]float64 {
	rates := make(map[int]float64, len(flows))
	ordered := make([]RefFlow, len(flows))
	copy(ordered, flows)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID < ordered[j].ID })

	remCap := make([]float64, len(capacity))
	copy(remCap, capacity)
	weightOn := make([]float64, len(capacity))
	frozen := make(map[int]bool, len(flows))
	for _, f := range ordered {
		rates[f.ID] = 0
		for _, l := range f.Path {
			weightOn[l] += f.weight()
		}
	}

	for {
		bottleneck := -1
		best := math.Inf(1)
		for l := range remCap {
			if weightOn[l] <= 0 {
				continue
			}
			if fair := remCap[l] / weightOn[l]; fair < best {
				best = fair
				bottleneck = l
			}
		}
		if bottleneck < 0 {
			return rates
		}
		progressed := false
		for _, f := range ordered {
			if frozen[f.ID] {
				continue
			}
			crosses := false
			for _, l := range f.Path {
				if l == bottleneck {
					crosses = true
					break
				}
			}
			if !crosses {
				continue
			}
			rate := best * f.weight()
			rates[f.ID] = rate
			for _, l := range f.Path {
				remCap[l] -= rate
				if remCap[l] < 0 {
					remCap[l] = 0
				}
				weightOn[l] -= f.weight()
			}
			frozen[f.ID] = true
			progressed = true
		}
		// A bottleneck that freezes no flow carries only floating-point
		// weight residue from non-integer weights: every flow that crossed
		// it is already frozen. Retire the link and keep filling — other
		// links may still constrain live flows.
		if !progressed {
			weightOn[bottleneck] = 0
		}
	}
}
