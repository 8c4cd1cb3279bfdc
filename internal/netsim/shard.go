package netsim

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"mosaic/internal/sim"
)

// FleetSim is the sharded, epoch-driven flow engine for fleet-scale
// simulation (ROADMAP item 2): one flowGraph shard per pod, rates
// frozen between epoch barriers, and all cross-shard coupling resolved
// at the barrier so the parallel phases touch only shard-local state.
//
// An epoch proceeds:
//
//	barrier (sequential)  — capacity changes, kills/reroutes, arrivals
//	phase A (parallel)    — each shard re-waterfills its dirty
//	                        components; cross-shard proxies participate
//	                        unpinned and their resulting rate is the
//	                        shard's offer for that flow
//	phase B (sequential)  — each cross flow's rate = min of its shard
//	                        offers; proxies are pinned at that rate and
//	                        shards whose allocation changed are re-dirtied
//	phase C (parallel)    — affected components re-waterfill with the
//	                        pinned proxies as fixed demand, returning the
//	                        slack to local flows
//	epoch run (parallel)  — each shard drains its completion heap up to
//	                        the epoch end at the frozen rates; cross
//	                        completions were resolved at the barrier
//
// Every sequential step iterates in ascending flow-ID / link-ID / shard
// order and every parallel step is shard-pure (a cross flow's two
// proxies are each owned by exactly one shard), so the records, event
// log, and every rate are byte-identical at any worker count — the same
// discipline the PHY/MAC pipelines obey.
//
// The fleet model is deliberately weaker than FlowSim's: rates are
// exact weighted max-min within a shard given the pinned cross rates,
// but cross flows advance at the min of per-shard offers (a bounded-
// staleness approximation refreshed whenever either side's component is
// dirtied) and a completion only frees capacity at the next barrier.
type FleetSim struct {
	Topo    *Topology
	shardOf []int
	workers int

	now      sim.Time
	capacity []float64 // shared; written only at barriers
	nextID   int

	shards []*fleetShard
	cross  map[int]*crossFlow

	records []FlowRecord // stalls + cross completions (shard records merged on demand)
	log     []string

	// Per-epoch counters (reset each Step).
	epochIdx      int
	arrivals      int
	stalls        int
	crossArrivals int

	// onResolved, when set, runs at the sequential point of Step where
	// the epoch's rates are fully resolved (after phase C, before cross
	// completions) — see SetResolvedHook.
	onResolved func()
}

// fleetShard is one pod's slice of the fleet: its own flowGraph over
// the shared capacity vector (only its pod's links are ever indexed), a
// completion heap for local flows, and its own record log.
type fleetShard struct {
	id     int
	g      *flowGraph
	active map[int]*incFlow
	h      completionHeap

	records []FlowRecord
	reRated []*incFlow // flows re-rated this epoch (phase A ∪ phase C)
	seenGen uint64
	done    int // completions this epoch
}

// crossFlow is the fleet-level master record of a two-shard flow; each
// involved shard holds a proxy restricted to its own links.
type crossFlow struct {
	id        int
	src, dst  int
	sizeBits  float64
	remaining float64
	rate      float64
	hash      uint64
	start     sim.Time
	proxies   []*incFlow // ascending shard order
	shards    []int
}

// NewFleetSim builds the sharded engine over a fleet topology.
// workers <= 0 runs the parallel phases on GOMAXPROCS goroutines;
// workers == 1 is fully sequential. Results are identical either way.
func NewFleetSim(t *Topology, workers int) *FleetSim {
	shardOf := LinkShards(t)
	pods := NumPods(t)
	capacity := make([]float64, len(t.Links))
	for i, l := range t.Links {
		capacity[i] = l.RateBps
	}
	fs := &FleetSim{
		Topo:     t,
		shardOf:  shardOf,
		workers:  workers,
		capacity: capacity,
		cross:    make(map[int]*crossFlow),
	}
	for p := 0; p < pods; p++ {
		fs.shards = append(fs.shards, &fleetShard{
			id:     p,
			g:      newFlowGraph(t, capacity),
			active: make(map[int]*incFlow),
		})
	}
	return fs
}

// Now returns the current barrier time.
func (fs *FleetSim) Now() sim.Time { return fs.now }

// ActiveFlows returns the number of in-flight flows (local + cross).
func (fs *FleetSim) ActiveFlows() int {
	n := len(fs.cross)
	for _, s := range fs.shards {
		n += len(s.active)
	}
	return n
}

// CrossFlows returns the number of in-flight cross-shard flows.
func (fs *FleetSim) CrossFlows() int { return len(fs.cross) }

// Waterfills sums component waterfill passes across shards.
func (fs *FleetSim) Waterfills() uint64 {
	var n uint64
	for _, s := range fs.shards {
		n += s.g.waterfills
	}
	return n
}

// RatedFlows sums per-flow rate assignments across shards — the work
// actually done, against the active-flows-per-event cost of a global
// re-fill.
func (fs *FleetSim) RatedFlows() uint64 {
	var n uint64
	for _, s := range fs.shards {
		n += s.g.rated
	}
	return n
}

// EventLog returns the per-epoch log lines (the determinism witness:
// its sha must match at any worker count).
func (fs *FleetSim) EventLog() []string { return fs.log }

// Records merges all shard-local and fleet-level records, ordered by
// (End, ID) — a deterministic global completion order.
func (fs *FleetSim) Records() []FlowRecord {
	var out []FlowRecord
	out = append(out, fs.records...)
	for _, s := range fs.shards {
		out = append(out, s.records...)
	}
	slices.SortFunc(out, func(a, b FlowRecord) int {
		if a.End != b.End {
			if a.End < b.End {
				return -1
			}
			return 1
		}
		return a.ID - b.ID
	})
	return out
}

// Inject starts a flow at the current barrier. The path is the live
// ECMP route; flows whose links all sit in one pod are local to that
// shard, flows spanning two pods become a cross flow with one proxy per
// shard. Weight is 1 (fleet traffic is best-effort).
func (fs *FleetSim) Inject(src, dst int, sizeBits float64, hash uint64) (int, error) {
	if sizeBits <= 0 {
		return 0, errFlowSize
	}
	path, err := routeAvoidingDead(fs.Topo, fs.capacity, src, dst, hash)
	if err != nil {
		return 0, err
	}
	id := fs.nextID
	fs.nextID++
	fs.admit(id, src, dst, sizeBits, sizeBits, hash, fs.now, path)
	fs.arrivals++
	return id, nil
}

// admit places a routed flow (new or rerouted) into its shard(s).
func (fs *FleetSim) admit(id, src, dst int, sizeBits, remaining float64, hash uint64, start sim.Time, path []int) {
	shardSet := []int{}
	for _, l := range path {
		s := fs.shardOf[l]
		found := false
		for _, have := range shardSet {
			if have == s {
				found = true
				break
			}
		}
		if !found {
			shardSet = append(shardSet, s)
		}
	}
	sort.Ints(shardSet)

	if len(shardSet) == 1 {
		sh := fs.shards[shardSet[0]]
		f := &incFlow{Flow: Flow{
			ID: id, Src: src, Dst: dst, SizeBits: sizeBits,
			Path: path, Hash: hash, Weight: 1,
			remaining: remaining, start: start, lastTouch: fs.now,
		}}
		sh.active[id] = f
		sh.g.addFlow(f)
		return
	}

	cf := &crossFlow{
		id: id, src: src, dst: dst, sizeBits: sizeBits,
		remaining: remaining, hash: hash, start: start, shards: shardSet,
	}
	for _, s := range shardSet {
		sub := make([]int, 0, len(path))
		for _, l := range path {
			if fs.shardOf[l] == s {
				sub = append(sub, l)
			}
		}
		p := &incFlow{Flow: Flow{
			ID: id, Src: src, Dst: dst, SizeBits: sizeBits,
			Path: sub, Hash: hash, Weight: 1,
		}, proxy: true}
		fs.shards[s].g.addFlow(p)
		cf.proxies = append(cf.proxies, p)
	}
	fs.cross[id] = cf
	fs.crossArrivals++
}

// SetLinkFraction scales a link to frac of nominal at the barrier, with
// FlowSim's clamp and no-op semantics. frac=0 kills the link: crossing
// flows reroute (in ascending flow-ID order) or stall.
func (fs *FleetSim) SetLinkFraction(linkID int, frac float64) {
	if linkID < 0 || linkID >= len(fs.capacity) {
		return
	}
	if frac < 0 || frac != frac {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	newCap := fs.Topo.Links[linkID].RateBps * frac
	if newCap == fs.capacity[linkID] {
		return
	}
	fs.capacity[linkID] = newCap
	fs.shards[fs.shardOf[linkID]].g.markDirty(linkID)
	if newCap == 0 {
		fs.rerouteThrough(linkID)
	}
}

// rerouteThrough re-admits or stalls every flow crossing a dead link.
func (fs *FleetSim) rerouteThrough(linkID int) {
	sh := fs.shards[fs.shardOf[linkID]]
	refs := sh.g.linkFlows[linkID]
	ids := make([]int, 0, len(refs))
	for _, ref := range refs {
		ids = append(ids, ref.f.ID)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if cf, ok := fs.cross[id]; ok {
			for i, s := range cf.shards {
				fs.shards[s].g.removeFlow(cf.proxies[i])
			}
			delete(fs.cross, id)
			fs.repath(id, cf.src, cf.dst, cf.sizeBits, cf.remaining, cf.hash, cf.start)
			continue
		}
		f, ok := sh.active[id]
		if !ok {
			continue // already handled (duplicate ref cannot happen, but stay safe)
		}
		sh.g.now = fs.now
		sh.g.settle(f)
		f.ver++ // invalidate queued completion
		delete(sh.active, id)
		sh.g.removeFlow(f)
		fs.repath(id, f.Src, f.Dst, f.SizeBits, f.remaining, f.Hash, f.start)
	}
}

// repath routes a displaced flow around dead links, re-admitting it
// (possibly changing local/cross classification) or recording a stall.
func (fs *FleetSim) repath(id, src, dst int, sizeBits, remaining float64, hash uint64, start sim.Time) {
	path, err := routeAvoidingDead(fs.Topo, fs.capacity, src, dst, hash+1)
	if err != nil {
		fs.records = append(fs.records, FlowRecord{
			ID: id, SizeBits: sizeBits, Start: start, End: fs.now, Stalled: true,
		})
		fs.stalls++
		return
	}
	fs.admit(id, src, dst, sizeBits, remaining, hash, start, path)
}

// Step advances the fleet by one epoch: resolve rates (phases A–C),
// complete cross flows at the barrier, then run every shard's local
// completions at frozen rates in parallel.
func (fs *FleetSim) Step(epochLen sim.Time) {
	epochEnd := fs.now + epochLen

	// Phase A: shard-local waterfill of dirty components; proxies bid.
	fs.runShards(func(sh *fleetShard) {
		sh.seenGen++
		sh.g.now = fs.now
		sh.noteReRated(sh.g.flush(true))
	})

	// Phase B: pin every cross flow at the min of its shards' offers.
	crossIDs := make([]int, 0, len(fs.cross))
	for id := range fs.cross {
		crossIDs = append(crossIDs, id)
	}
	sort.Ints(crossIDs)
	for _, id := range crossIDs {
		cf := fs.cross[id]
		final := cf.proxies[0].offer
		for _, p := range cf.proxies[1:] {
			if p.offer < final {
				final = p.offer
			}
		}
		cf.rate = final
		for i, p := range cf.proxies {
			p.pinned = true
			if p.rate != final {
				p.rate = final
				for _, l := range p.Path {
					fs.shards[cf.shards[i]].g.markDirty(l)
				}
			}
		}
	}

	// Phase C: re-waterfill around the pinned proxies (slack to locals).
	fs.runShards(func(sh *fleetShard) {
		sh.g.now = fs.now
		sh.noteReRated(sh.g.flush(false))
	})

	// Rates are now globally consistent: every dirty component has been
	// re-filled and the pinned proxies carry their barrier rates.
	if fs.onResolved != nil {
		fs.onResolved()
	}

	// Cross completions resolve at the barrier: a cross flow finishing
	// inside this epoch is recorded at its exact finish time and its
	// proxies leave their shards (capacity returns at the next barrier).
	crossDone := 0
	for _, id := range crossIDs {
		cf, ok := fs.cross[id]
		if !ok || cf.rate <= 0 {
			continue
		}
		at := fs.now + sim.Time(cf.remaining/cf.rate)
		if at <= epochEnd {
			fs.records = append(fs.records, FlowRecord{
				ID: cf.id, SizeBits: cf.sizeBits, Start: cf.start, End: at,
			})
			for i, s := range cf.shards {
				fs.shards[s].g.removeFlow(cf.proxies[i])
			}
			delete(fs.cross, id)
			crossDone++
			continue
		}
		cf.remaining -= cf.rate * float64(epochLen)
	}

	// Epoch run: refresh completion entries for re-rated local flows,
	// then drain each shard's heap to the epoch end at frozen rates.
	fs.runShards(func(sh *fleetShard) {
		sh.done = 0
		for _, f := range sh.reRated {
			if _, ok := sh.active[f.ID]; !ok {
				continue
			}
			f.ver++
			if f.rate > 0 {
				sh.h.push(completion{
					at:  fs.now + sim.Time(f.remaining/f.rate),
					id:  f.ID,
					ver: f.ver,
				})
			}
		}
		sh.reRated = sh.reRated[:0]
		if len(sh.h) > 4*len(sh.active)+64 {
			sh.compact()
		}
		for len(sh.h) > 0 {
			head := sh.h[0]
			f, ok := sh.active[head.id]
			if !ok || f.ver != head.ver {
				sh.h.pop()
				continue
			}
			if head.at > epochEnd {
				break
			}
			sh.h.pop()
			sh.g.now = head.at
			sh.g.settle(f)
			sh.records = append(sh.records, FlowRecord{
				ID: f.ID, SizeBits: f.SizeBits, Start: f.start, End: head.at,
			})
			delete(sh.active, f.ID)
			sh.g.removeFlow(f)
			sh.done++
		}
	})

	// Epilogue: one deterministic log line per epoch.
	done := 0
	var perShard []string
	for _, sh := range fs.shards {
		done += sh.done
		perShard = append(perShard, fmt.Sprintf("%d", sh.done))
	}
	var capSum float64
	for _, c := range fs.capacity {
		capSum += c
	}
	fs.log = append(fs.log, fmt.Sprintf(
		"epoch=%d t=%.3f arrivals=%d cross_arrivals=%d stalls=%d done=%d cross_done=%d per_shard=[%s] active=%d cross=%d cap_sum=%.6e",
		fs.epochIdx, float64(fs.now), fs.arrivals, fs.crossArrivals, fs.stalls,
		done, crossDone, strings.Join(perShard, ","), fs.ActiveFlows(), len(fs.cross), capSum))
	fs.epochIdx++
	fs.arrivals, fs.crossArrivals, fs.stalls = 0, 0, 0
	fs.now = epochEnd
}

// noteReRated merges a flush's touched flows into the epoch's refresh
// set exactly once per flow (seen markers survive across phases A/C).
func (sh *fleetShard) noteReRated(touched []*incFlow) {
	for _, f := range touched {
		if f.proxy || f.seen == sh.seenGen {
			continue
		}
		f.seen = sh.seenGen
		sh.reRated = append(sh.reRated, f)
	}
}

// compact rebuilds the shard heap dropping stale entries.
func (sh *fleetShard) compact() {
	live := sh.h[:0]
	for _, c := range sh.h {
		if f, ok := sh.active[c.id]; ok && f.ver == c.ver {
			live = append(live, c)
		}
	}
	sh.h = live
	sh.h.init()
}

// runShards executes fn once per shard, on fs.workers goroutines
// (GOMAXPROCS when <= 0). Shards never share mutable state during a
// phase, so the schedule cannot affect the result.
func (fs *FleetSim) runShards(fn func(*fleetShard)) {
	w := fs.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(fs.shards) {
		w = len(fs.shards)
	}
	if w <= 1 {
		for _, sh := range fs.shards {
			fn(sh)
		}
		return
	}
	var wg sync.WaitGroup
	work := make(chan *fleetShard)
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sh := range work {
				fn(sh)
			}
		}()
	}
	for _, sh := range fs.shards {
		work <- sh
	}
	close(work)
	wg.Wait()
}
