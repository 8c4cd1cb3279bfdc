package netsim

import (
	"math"
	"slices"
	"sort"

	"mosaic/internal/sim"
)

// This file is the incremental flow engine: the dirty-set max-min core
// (flowGraph) shared by FlowSim and the fleet shards, plus FlowSim
// itself — an event-driven, exactly-max-min simulator that only
// re-waterfills the connected component of links/flows an event can
// have affected, never the whole fabric.
//
// Exactness: weighted max-min by progressive filling decomposes over
// connected components of the flow/link sharing graph — flows in
// disjoint components never contend for a link, so re-filling only the
// dirtied component yields the same allocation as a global fill. With
// links scanned in ascending index order and flows frozen in ascending
// ID order on both sides, the floating-point operation sequence per
// component is identical too, so the incremental rates equal
// refmodel.MaxMinRates bit for bit (pinned by the flowsim_inc diffcheck
// stage and the deep property suite).

// linkRef is one entry in a link's flow index: the flow plus the index
// of this link within the flow's Path, so a swap-delete can repair the
// moved entry's back-pointer in O(1).
type linkRef struct {
	f  *incFlow
	pi int32
}

// incFlow is a Flow plus the incremental-engine bookkeeping.
type incFlow struct {
	Flow
	pos  []int32 // pos[i] = index of this flow in linkFlows[Path[i]]
	ver  uint32  // valid completion-heap entry version
	mark uint64  // component-gather epoch marker
	seen uint64  // fleet per-epoch re-rated dedup marker

	// Fleet-shard fields: a cross-shard flow is represented inside each
	// shard by a proxy restricted to that shard's sub-path. A pinned
	// proxy's rate is fixed by the epoch barrier (the min of the shard
	// offers); the waterfill subtracts it from capacity instead of
	// assigning it. offer is the rate the last unpinned waterfill gave
	// the proxy — the shard's current bid for the cross flow.
	proxy  bool
	pinned bool
	offer  float64

	// filled marks a flow frozen (or pinned) within the current
	// waterfill, so the crossing scan over a bottleneck's link index can
	// skip it without consulting a side table.
	filled bool
}

// flowGraph is the incremental allocation core: per-link flow indices,
// a dirty-link set, and a component-restricted waterfill with reusable
// scratch. FlowSim drives one flowGraph from a discrete-event engine;
// the sharded fleet engine drives one per shard from its epoch barrier.
type flowGraph struct {
	topo     *Topology
	capacity []float64 // may be shared across shards; written only at barriers
	now      sim.Time

	linkFlows [][]linkRef

	dirty   []int
	dirtyIn []bool

	// Waterfill scratch, persistent across flushes. linkMark/epoch and
	// incFlow.mark implement O(component) visited sets with no clearing.
	remCap    []float64
	weightOn  []float64
	linkMark  []uint64
	epoch     uint64
	compLinks []int
	compFlows []*incFlow
	touched   []*incFlow // flows re-rated by the last flush
	cross     []*incFlow // per-round crossing-set scratch

	waterfills uint64 // component waterfill passes run
	rated      uint64 // flow-rate assignments performed
}

func newFlowGraph(t *Topology, capacity []float64) *flowGraph {
	n := len(t.Links)
	return &flowGraph{
		topo:      t,
		capacity:  capacity,
		linkFlows: make([][]linkRef, n),
		dirtyIn:   make([]bool, n),
		remCap:    make([]float64, n),
		weightOn:  make([]float64, n),
		linkMark:  make([]uint64, n),
	}
}

// markDirty queues a link for the next flush.
func (g *flowGraph) markDirty(l int) {
	if !g.dirtyIn[l] {
		g.dirtyIn[l] = true
		g.dirty = append(g.dirty, l)
	}
}

// addFlow indexes the flow on every link of its path and dirties them.
func (g *flowGraph) addFlow(f *incFlow) {
	if cap(f.pos) < len(f.Path) {
		f.pos = make([]int32, len(f.Path))
	}
	f.pos = f.pos[:len(f.Path)]
	for i, l := range f.Path {
		f.pos[i] = int32(len(g.linkFlows[l]))
		g.linkFlows[l] = append(g.linkFlows[l], linkRef{f: f, pi: int32(i)})
		g.markDirty(l)
	}
}

// removeFlow unindexes the flow (O(pathlen) swap-deletes) and dirties
// its links.
func (g *flowGraph) removeFlow(f *incFlow) {
	for i, l := range f.Path {
		s := g.linkFlows[l]
		p := f.pos[i]
		last := len(s) - 1
		moved := s[last]
		s[p] = moved
		moved.f.pos[moved.pi] = p
		s[last] = linkRef{}
		g.linkFlows[l] = s[:last]
		g.markDirty(l)
	}
}

// settle progresses a flow's remaining bits to g.now.
func (g *flowGraph) settle(f *incFlow) {
	elapsed := float64(g.now - f.lastTouch)
	if elapsed > 0 && f.rate > 0 {
		f.remaining -= f.rate * elapsed
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
	f.lastTouch = g.now
}

// flush re-waterfills every connected component reachable from the
// dirty links and returns the flows whose rates were reassigned (the
// caller refreshes their completion entries). Links and flows outside
// the dirty components keep their rates: no flow there shares a link
// with a dirtied flow, so its max-min allocation cannot have changed.
func (g *flowGraph) flush(unpinProxies bool) []*incFlow {
	g.touched = g.touched[:0]
	if len(g.dirty) == 0 {
		return g.touched
	}
	g.epoch++
	for _, l := range g.dirty {
		g.dirtyIn[l] = false
	}
	for _, seed := range g.dirty {
		if g.linkMark[seed] == g.epoch {
			continue // already swept into an earlier component this flush
		}
		g.gatherComponent(seed)
		g.waterfillComponent(unpinProxies)
	}
	g.dirty = g.dirty[:0]
	return g.touched
}

// gatherComponent BFSes the link/flow sharing graph from seed into
// compLinks/compFlows (both reset first).
func (g *flowGraph) gatherComponent(seed int) {
	g.compLinks = g.compLinks[:0]
	g.compFlows = g.compFlows[:0]
	g.linkMark[seed] = g.epoch
	g.compLinks = append(g.compLinks, seed)
	for qi := 0; qi < len(g.compLinks); qi++ {
		l := g.compLinks[qi]
		for _, ref := range g.linkFlows[l] {
			f := ref.f
			if f.mark == g.epoch {
				continue
			}
			f.mark = g.epoch
			g.compFlows = append(g.compFlows, f)
			for _, fl := range f.Path {
				if g.linkMark[fl] != g.epoch {
					g.linkMark[fl] = g.epoch
					g.compLinks = append(g.compLinks, fl)
				}
			}
		}
	}
}

// waterfillComponent runs progressive-filling weighted max-min fairness
// restricted to the gathered component, with the same deterministic
// ordering as the global algorithm: links scanned ascending, flows
// frozen ascending by ID. Pinned proxies contribute a fixed demand
// (capacity subtracted up front) instead of participating in the fill;
// with unpinProxies set, proxies join the fill as ordinary flows and
// their resulting rate is recorded as the shard's offer.
func (g *flowGraph) waterfillComponent(unpinProxies bool) {
	flows := g.compFlows
	if len(flows) == 0 {
		return
	}
	g.waterfills++
	slices.SortFunc(flows, func(a, b *incFlow) int { return a.ID - b.ID })
	links := g.compLinks
	slices.Sort(links)
	for _, l := range links {
		g.remCap[l] = g.capacity[l]
		g.weightOn[l] = 0
	}

	unfrozen := flows[:0:len(flows)] // reuse backing array; flows stays intact via touched append below
	// First pass: settle participants, subtract pinned demand, build the
	// unfrozen working set.
	for _, f := range flows {
		if f.proxy && unpinProxies {
			f.pinned = false
		}
		if !f.proxy {
			g.settle(f)
		}
		if f.pinned {
			f.filled = true
			for _, l := range f.Path {
				g.remCap[l] -= f.rate
				if g.remCap[l] < 0 {
					g.remCap[l] = 0
				}
			}
			continue
		}
		f.rate = 0
		f.filled = false
		unfrozen = append(unfrozen, f)
	}
	g.rated += uint64(len(unfrozen))
	g.touched = append(g.touched, unfrozen...)
	for _, f := range unfrozen {
		for _, l := range f.Path {
			g.weightOn[l] += f.weight()
		}
	}

	// Progressive filling. The crossing set of each bottleneck comes
	// from the per-link flow index — O(crossing) per round instead of a
	// scan of every unfrozen flow — sorted by ID so the freeze order
	// (and therefore every float operation) matches the global reference
	// bit for bit.
	left := len(unfrozen)
	for left > 0 {
		bottleneck := -1
		best := math.Inf(1)
		for _, l := range links {
			if g.weightOn[l] <= 0 {
				continue
			}
			if fair := g.remCap[l] / g.weightOn[l]; fair < best {
				best = fair
				bottleneck = l
			}
		}
		if bottleneck < 0 {
			break
		}
		cross := g.cross[:0]
		for _, ref := range g.linkFlows[bottleneck] {
			if !ref.f.filled {
				cross = append(cross, ref.f)
			}
		}
		g.cross = cross
		if len(cross) == 0 {
			// Only floating-point weight residue on the bottleneck:
			// retire it and keep filling the rest of the component.
			g.weightOn[bottleneck] = 0
			continue
		}
		slices.SortFunc(cross, func(a, b *incFlow) int { return a.ID - b.ID })
		for _, f := range cross {
			f.rate = best * f.weight()
			if f.proxy {
				f.offer = f.rate
			}
			f.filled = true
			left--
			for _, l := range f.Path {
				g.remCap[l] -= f.rate
				if g.remCap[l] < 0 {
					g.remCap[l] = 0
				}
				g.weightOn[l] -= f.weight()
			}
		}
	}
}

// completion is a lazily-invalidated completion-heap entry: it fires
// only if the flow is still active and its version matches (any rate
// change bumps ver and pushes a fresh entry). Ordering is (time, flow
// ID): two flows finishing at the same instant always complete in ID
// order, never map order.
type completion struct {
	at  sim.Time
	id  int
	ver uint32
}

// completionHeap is a binary min-heap of completions. push, pop and init
// are container/heap's sift-up/sift-down algorithm specialised to the
// element type, so the pop order is identical but no entry is boxed in
// an interface.
type completionHeap []completion

func (h completionHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].id < h[j].id
}

func (h *completionHeap) push(c completion) {
	*h = append(*h, c)
	h.up(len(*h) - 1)
}

// pop removes and returns the minimum entry; the heap must be non-empty.
func (h *completionHeap) pop() completion {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	*h = old[:n]
	return old[n]
}

// init restores the heap ordering of an arbitrary slice in O(n).
func (h completionHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

func (h completionHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h completionHeap) down(i, n int) {
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// FlowSim is a max-min fair fluid flow simulator over a Topology, driven
// by a discrete-event engine. Each arrival, completion, or capacity
// change re-waterfills only the affected component (per-link flow
// indices + dirty set), and the next completion comes from a heap. It
// is the capacity sink mac.Bridge drives.
type FlowSim struct {
	Topo   *Topology
	Engine *sim.Engine

	g       *flowGraph
	active  map[int]*incFlow
	nextID  int
	records []FlowRecord

	h         completionHeap
	pending   sim.Canceler
	pendingAt sim.Time
	batch     bool
}

// NewFlowSim builds a simulator over the topology with every link at its
// nominal rate.
func NewFlowSim(t *Topology, engine *sim.Engine) *FlowSim {
	capacity := make([]float64, len(t.Links))
	for i, l := range t.Links {
		capacity[i] = l.RateBps
	}
	return &FlowSim{
		Topo:   t,
		Engine: engine,
		g:      newFlowGraph(t, capacity),
		active: make(map[int]*incFlow),
	}
}

// LinkCapacity returns the current capacity of a link.
func (fs *FlowSim) LinkCapacity(linkID int) float64 { return fs.g.capacity[linkID] }

// ActiveFlows returns the number of in-flight flows.
func (fs *FlowSim) ActiveFlows() int { return len(fs.active) }

// Records returns completed/stalled flow records.
func (fs *FlowSim) Records() []FlowRecord { return fs.records }

// Waterfills returns how many component waterfill passes have run.
func (fs *FlowSim) Waterfills() uint64 { return fs.g.waterfills }

// RatedFlows returns the cumulative number of per-flow rate assignments
// — the engine's work metric: a global re-fill on every event would
// rate every active flow each time.
func (fs *FlowSim) RatedFlows() uint64 { return fs.g.rated }

// StartFlow injects a weight-1 flow now (ECMP path from the hash).
func (fs *FlowSim) StartFlow(src, dst int, sizeBits float64, hash uint64) (int, error) {
	return fs.StartFlowWeighted(src, dst, sizeBits, hash, 1)
}

// StartFlowWeighted injects a flow with a max-min scheduling weight.
func (fs *FlowSim) StartFlowWeighted(src, dst int, sizeBits float64, hash uint64, weight float64) (int, error) {
	if sizeBits <= 0 {
		return 0, errFlowSize
	}
	if weight <= 0 || weight != weight {
		weight = 1
	}
	path, err := routeAvoidingDead(fs.Topo, fs.g.capacity, src, dst, hash)
	if err != nil {
		return 0, err
	}
	id := fs.nextID
	fs.nextID++
	f := &incFlow{Flow: Flow{
		ID: id, Src: src, Dst: dst, SizeBits: sizeBits,
		Path: path, Hash: hash, Weight: weight,
		remaining: sizeBits,
		start:     fs.Engine.Now(),
		lastTouch: fs.Engine.Now(),
	}}
	fs.active[id] = f
	fs.g.addFlow(f)
	fs.flush()
	return id, nil
}

// BeginBatch suspends rate recomputation: arrivals and capacity changes
// accumulate in the dirty set and a single CommitBatch waterfills each
// affected component once. Use it to apply a burst of simultaneous
// events (a correlated failure, a fleet epoch) at O(components) instead
// of O(events × components).
func (fs *FlowSim) BeginBatch() { fs.batch = true }

// CommitBatch ends a batch and recomputes the dirtied components.
func (fs *FlowSim) CommitBatch() {
	fs.batch = false
	fs.flush()
}

// SetLinkCapacityFraction scales a link to frac of its nominal rate
// (graceful degradation: a Mosaic link that lost channels). frac=0 kills
// the link and reroutes affected flows. frac is clamped to [0, 1]: a
// degraded link can never exceed its nominal rate (RestoreLink is the
// ceiling), and NaN is treated as link-down rather than poisoning the
// max-min waterfill. A write that changes nothing (repeated RestoreLink,
// a Bridge re-sync, a second FailLink) returns before any recompute, and
// a real change re-waterfills only the components it touches.
func (fs *FlowSim) SetLinkCapacityFraction(linkID int, frac float64) {
	if linkID < 0 || linkID >= len(fs.g.capacity) {
		return
	}
	if frac < 0 || frac != frac {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	newCap := fs.Topo.Links[linkID].RateBps * frac
	if newCap == fs.g.capacity[linkID] {
		return
	}
	fs.g.capacity[linkID] = newCap
	fs.g.markDirty(linkID)
	if newCap == 0 {
		fs.rerouteThrough(linkID)
	}
	fs.flush()
}

// FailLink kills a link entirely and reroutes affected flows.
func (fs *FlowSim) FailLink(linkID int) { fs.SetLinkCapacityFraction(linkID, 0) }

// RestoreLink returns a link to full capacity.
func (fs *FlowSim) RestoreLink(linkID int) { fs.SetLinkCapacityFraction(linkID, 1) }

// rerouteThrough re-paths the flows crossing a dead link in ascending
// flow-ID order, so a kill that strands several flows appends their
// Stalled records in a run-independent order.
func (fs *FlowSim) rerouteThrough(linkID int) {
	refs := fs.g.linkFlows[linkID]
	crossing := make([]*incFlow, len(refs))
	for i, ref := range refs {
		crossing[i] = ref.f
	}
	sort.Slice(crossing, func(i, j int) bool { return crossing[i].ID < crossing[j].ID })
	fs.g.now = fs.Engine.Now()
	for _, f := range crossing {
		fs.g.settle(f)
		path, err := routeAvoidingDead(fs.Topo, fs.g.capacity, f.Src, f.Dst, f.Hash+1)
		fs.g.removeFlow(f)
		if err != nil {
			fs.records = append(fs.records, FlowRecord{
				ID: f.ID, SizeBits: f.SizeBits, Start: f.start,
				End: fs.Engine.Now(), Stalled: true,
			})
			delete(fs.active, f.ID)
			f.ver++ // invalidate any queued completion
			continue
		}
		f.Path = path
		fs.g.addFlow(f)
	}
}

// flush recomputes dirty components (unless batching) and refreshes the
// completion entries of every re-rated flow.
func (fs *FlowSim) flush() {
	if fs.batch {
		return
	}
	fs.g.now = fs.Engine.Now()
	touched := fs.g.flush(false)
	for _, f := range touched {
		f.ver++
		if f.rate > 0 {
			fs.h.push(completion{
				at:  fs.Engine.Now() + sim.Time(f.remaining/f.rate),
				id:  f.ID,
				ver: f.ver,
			})
		}
	}
	if len(fs.h) > 4*len(fs.active)+64 {
		fs.compact()
	}
	fs.rescheduleHead()
}

// compact rebuilds the heap dropping stale entries.
func (fs *FlowSim) compact() {
	live := fs.h[:0]
	for _, c := range fs.h {
		if f, ok := fs.active[c.id]; ok && f.ver == c.ver {
			live = append(live, c)
		}
	}
	fs.h = live
	fs.h.init()
}

// rescheduleHead points the single pending engine event at the heap's
// first valid entry.
func (fs *FlowSim) rescheduleHead() {
	for len(fs.h) > 0 {
		head := fs.h[0]
		if f, ok := fs.active[head.id]; ok && f.ver == head.ver {
			break
		}
		fs.h.pop()
	}
	if len(fs.h) == 0 {
		if fs.pending != nil {
			fs.pending()
			fs.pending = nil
		}
		return
	}
	at := fs.h[0].at
	if fs.pending != nil {
		if fs.pendingAt == at {
			return
		}
		fs.pending()
	}
	fs.pendingAt = at
	fs.pending = fs.Engine.Schedule(at, fs.onCompletion)
}

// onCompletion completes the (single) flow at the heap head, then
// recomputes its component and reschedules. A simultaneous second
// completion fires as its own engine event, in flow-ID order.
func (fs *FlowSim) onCompletion() {
	fs.pending = nil
	for len(fs.h) > 0 {
		head := fs.h[0]
		f, ok := fs.active[head.id]
		if !ok || f.ver != head.ver {
			fs.h.pop()
			continue
		}
		if head.at > fs.Engine.Now() {
			break // head changed since scheduling; push the event later
		}
		fs.h.pop()
		fs.g.now = fs.Engine.Now()
		fs.g.settle(f)
		fs.records = append(fs.records, FlowRecord{
			ID: f.ID, SizeBits: f.SizeBits, Start: f.start, End: fs.Engine.Now(),
		})
		delete(fs.active, f.ID)
		fs.g.removeFlow(f)
		break
	}
	fs.flush()
}

// FlowState is a read-only view of one active flow's allocation, the
// exchange format for the differential and property harnesses.
type FlowState struct {
	ID     int
	Path   []int
	Weight float64
	Rate   float64
}

// FlowStates returns the active flows sorted by ID.
func (fs *FlowSim) FlowStates() []FlowState {
	out := make([]FlowState, 0, len(fs.active))
	for _, f := range fs.active {
		out = append(out, FlowState{ID: f.ID, Path: f.Path, Weight: f.weight(), Rate: f.rate})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Capacities returns a copy of the current per-link capacities.
func (fs *FlowSim) Capacities() []float64 {
	out := make([]float64, len(fs.g.capacity))
	copy(out, fs.g.capacity)
	return out
}
