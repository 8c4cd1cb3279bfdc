package netsim

import (
	"errors"
	"fmt"
	"sort"

	"mosaic/internal/sim"
)

// Flow is one transfer in the fluid flow model.
type Flow struct {
	ID       int
	Src, Dst int
	SizeBits float64
	Path     []int // link IDs
	Hash     uint64

	// Weight scales the flow's share under weighted max-min fairness: a
	// weight-2 flow receives twice the rate of a weight-1 flow at the
	// same bottleneck. StartFlow sets 1; priority traffic (e.g. a MAC
	// virtual channel's QoS class) uses StartFlowWeighted.
	Weight float64

	remaining float64
	rate      float64
	start     sim.Time
	lastTouch sim.Time
}

// FlowRecord is a completed (or abandoned) flow.
type FlowRecord struct {
	ID       int
	SizeBits float64
	Start    sim.Time
	End      sim.Time
	Stalled  bool // true if the flow could never finish (no route)
}

// FCT returns the flow completion time.
func (r FlowRecord) FCT() sim.Time { return r.End - r.Start }

// errFlowSize rejects non-positive flow sizes.
var errFlowSize = errors.New("netsim: flow size must be positive")

// errDeadPath is the per-attempt routing error for an ECMP path that
// crosses a dead link; a sentinel, so a retry loop allocates nothing.
var errDeadPath = errors.New("netsim: path through dead link")

// routeAvoidingDead retries ECMP hashes until the path avoids dead
// links. Shared by FlowSim and FleetSim.
func routeAvoidingDead(t *Topology, capacity []float64, src, dst int, hash uint64) ([]int, error) {
	var lastErr error
	for attempt := uint64(0); attempt < 64; attempt++ {
		path, err := t.Path(src, dst, hash+attempt*0x9e3779b9)
		if err != nil {
			lastErr = err
			continue
		}
		ok := true
		for _, l := range path {
			if capacity[l] <= 0 {
				ok = false
				break
			}
		}
		if ok {
			return path, nil
		}
		lastErr = errDeadPath
	}
	return nil, fmt.Errorf("netsim: no live path from %d to %d: %w", src, dst, lastErr)
}

// weight returns the flow's effective max-min weight (zero value = 1, so
// Flow literals without an explicit weight behave like before).
func (f *Flow) weight() float64 {
	if f.Weight <= 0 || f.Weight != f.Weight {
		return 1
	}
	return f.Weight
}

// FCTStats summarises completion times.
type FCTStats struct {
	Count   int
	Stalled int
	Mean    sim.Time
	P50     sim.Time
	P99     sim.Time
	Max     sim.Time
}

// Stats computes FCT statistics over completed (non-stalled) records.
func Stats(records []FlowRecord) FCTStats {
	var st FCTStats
	var fcts []float64
	var sum float64
	for _, r := range records {
		if r.Stalled {
			st.Stalled++
			continue
		}
		f := float64(r.FCT())
		fcts = append(fcts, f)
		sum += f
	}
	st.Count = len(fcts)
	if st.Count == 0 {
		return st
	}
	sort.Float64s(fcts)
	st.Mean = sim.Time(sum / float64(st.Count))
	st.P50 = sim.Time(fcts[st.Count/2])
	st.P99 = sim.Time(fcts[min(st.Count-1, st.Count*99/100)])
	st.Max = sim.Time(fcts[st.Count-1])
	return st
}
