package netsim

import (
	"slices"
	"testing"

	"mosaic/internal/sim"
)

// Regression: a link kill that strands several flows must append their
// Stalled records in ascending flow-ID order. The pre-fix code iterated
// the active map directly, so with four stranded flows the record order
// was whatever the runtime's map hashing produced; 50 fresh simulations
// make a map-order leak essentially certain to surface.
func TestRerouteStalledRecordOrderDeterministic(t *testing.T) {
	for iter := 0; iter < 50; iter++ {
		topo, err := NewLeafSpine(2, 1, 4, 100e9)
		if err != nil {
			t.Fatal(err)
		}
		engine := sim.NewEngine(1)
		fs := NewFlowSim(topo, engine)
		hosts := topo.Hosts()
		// Four flows into h0; its single access link is their only route.
		for _, src := range []int{hosts[4], hosts[5], hosts[6], hosts[1]} {
			if _, err := fs.StartFlow(src, hosts[0], 1e9, 7); err != nil {
				t.Fatal(err)
			}
		}
		fs.FailLink(0) // h0's access link: all four flows stall
		recs := fs.Records()
		if len(recs) != 4 {
			t.Fatalf("iter %d: want 4 stalled records, got %d", iter, len(recs))
		}
		for i, r := range recs {
			if !r.Stalled {
				t.Fatalf("iter %d: record %d not stalled", iter, i)
			}
			if r.ID != i {
				t.Fatalf("iter %d: stalled records out of ID order: got %d at position %d", iter, r.ID, i)
			}
		}
	}
}

// Regression: two identical flows on disjoint paths finish at the same
// instant and must be recorded in flow-ID order, not completion-scan map
// order. Pre-fix, reschedule's `at < nextAt` comparison let whichever
// flow the map yielded first win the tie.
func TestCompletionTieBreakDeterministic(t *testing.T) {
	for iter := 0; iter < 50; iter++ {
		topo, err := NewLeafSpine(2, 1, 2, 100e9)
		if err != nil {
			t.Fatal(err)
		}
		engine := sim.NewEngine(1)
		fs := NewFlowSim(topo, engine)
		hosts := topo.Hosts()
		// h0→h1 stays on leaf 0, h2→h3 on leaf 1: fully disjoint links,
		// identical sizes, identical completion times.
		if _, err := fs.StartFlow(hosts[0], hosts[1], 1e9, 3); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.StartFlow(hosts[2], hosts[3], 1e9, 3); err != nil {
			t.Fatal(err)
		}
		engine.Run()
		recs := fs.Records()
		if len(recs) != 2 {
			t.Fatalf("iter %d: want 2 records, got %d", iter, len(recs))
		}
		if recs[0].End != recs[1].End {
			t.Fatalf("iter %d: expected an exact completion tie, got %v vs %v", iter, recs[0].End, recs[1].End)
		}
		if recs[0].ID != 0 || recs[1].ID != 1 {
			t.Fatalf("iter %d: tie recorded out of ID order: [%d, %d]", iter, recs[0].ID, recs[1].ID)
		}
	}
}

// Regression (perf): capacity writes that change nothing — repeated
// RestoreLink, a Bridge re-sync publishing the fraction the link already
// has, a second FailLink — must not waterfill at all, and a real change
// on a loaded link must waterfill its component exactly once. The
// sequence runs on a link the flow crosses, so a skipped recompute is
// the no-op check at work, not an empty component.
func TestSetLinkCapacityFractionNoOpSkipsRecompute(t *testing.T) {
	topo, err := NewLeafSpine(2, 2, 2, 100e9)
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine(1)
	fs := NewFlowSim(topo, engine)
	hosts := topo.Hosts()
	if _, err := fs.StartFlow(hosts[0], hosts[2], 1e12, 5); err != nil {
		t.Fatal(err)
	}
	link := fs.FlowStates()[0].Path[1] // the flow's leaf→spine hop

	expect := func(what string, want uint64) {
		t.Helper()
		if got := fs.Waterfills(); got != want {
			t.Fatalf("%s: waterfills %d, want %d", what, got, want)
		}
	}
	base := fs.Waterfills()
	fs.RestoreLink(link) // already at full capacity
	fs.RestoreLink(link)
	expect("no-op RestoreLink", base)

	fs.SetLinkCapacityFraction(link, 0.5)
	expect("real fraction change", base+1)
	fs.SetLinkCapacityFraction(link, 0.5) // same fraction again
	expect("repeated fraction", base+1)

	fs.RestoreLink(link)
	expect("real restore", base+2)
	fs.RestoreLink(link)
	expect("double RestoreLink", base+2)

	// Killing the link reroutes the flow (one waterfill of its new
	// component); a second kill of the dead link is a no-op.
	fs.FailLink(link)
	expect("real kill", base+3)
	fs.FailLink(link)
	expect("second FailLink", base+3)

	// A capacity change on a link no flow crosses re-rates nothing.
	path := fs.FlowStates()[0].Path
	idle := -1
	for l := range topo.Links {
		if !slices.Contains(path, l) && fs.LinkCapacity(l) > 0 {
			idle = l
			break
		}
	}
	if idle < 0 {
		t.Fatal("topology has no idle live link")
	}
	fs.SetLinkCapacityFraction(idle, 0.25)
	if got, want := fs.LinkCapacity(idle), topo.Links[idle].RateBps*0.25; got != want {
		t.Fatalf("idle link capacity %g, want %g", got, want)
	}
	expect("idle-link change", base+3)
}
