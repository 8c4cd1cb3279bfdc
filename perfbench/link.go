package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"mosaic/internal/core"
	"mosaic/internal/mac"
	"mosaic/internal/phy"
)

// link-70m: two core.DefaultDesign() PHY links at 70 m, the reach edge,
// joined by a selective-repeat MAC endpoint pair with three QoS virtual
// channels. Every superframe tick queues client packets up to a fixed
// backlog, then runs BuildSuperframe -> ExchangeInto -> Accept in each
// direction, so the offered load saturates the superframe budget and the
// RS decoder and the ARQ both do real work.
const (
	linkLengthM     = 70
	linkPacketLen   = 1500
	linkHeaderLen   = 8
	linkVCs         = 3
	linkPHYFrameLen = mac.DefaultPHYFrameLen
	linkBudget      = 100 * linkPHYFrameLen // one superframe: 100 PHY frames per direction
	linkBacklog     = 8                     // packets kept queued per VC
	linkLoadedSF    = 400                   // loaded ticks per repetition
	linkDrainMaxSF  = 400                   // bound on the unloaded drain ticks
	linkPoolLen     = 1 << 16               // payload body source
)

// The link pair is a fixed fixture: design seed 1 is E10's 70 m point
// (197/200 frames delivered), seed 2 its reverse twin. A design seed
// draws the channel population, and how many blocks need correcting
// moves the decode cost by a fifth or more between populations, so
// letting the workload seed pick the hardware would make the work
// itself differ from seed to seed.
const linkFwdSeed, linkRevSeed = 1, 2

// linkInputs is what the link workload feeds the system: the bytes
// client packets are cut from.
type linkInputs struct{ pool []byte }

func genLinkInputs(seed int64) linkInputs {
	in := linkInputs{pool: make([]byte, linkPoolLen)}
	rand.New(rand.NewSource(seed)).Read(in.pool)
	return in
}

// packet writes the payload of packet seq on vc from direction dir.
func (in *linkInputs) packet(dst []byte, dir, vc int, seq uint32) []byte {
	dst = dst[:linkPacketLen]
	dst[0], dst[1] = byte(dir), byte(vc)
	binary.LittleEndian.PutUint32(dst[2:6], seq)
	dst[6], dst[7] = 0, 0
	copy(dst[linkHeaderLen:], in.body(vc, seq))
	return dst
}

func (in *linkInputs) body(vc int, seq uint32) []byte {
	n := linkPacketLen - linkHeaderLen
	off := (int(seq)*131 + vc*977) % (len(in.pool) - n)
	return in.pool[off : off+n]
}

// linkCounts are the exact simulated statistics of one repetition; they
// must not depend on timing, tracing or the worker count.
type linkCounts struct {
	ticks, exchanges                  int
	framesIn, framesDelivered         int
	unitsLost, corrections            int
	wireBytes, payloadBytes           int
	queued, delivered                 uint64
	dataTx, retransmits, timeouts     uint64
	creditStalls, duplicates, reorder uint64
}

// linkRep is one timed repetition's measurements.
type linkRep struct {
	setup, run    time.Duration
	phyBuild      []time.Duration
	cpu           float64
	ticks         []float64 // ms per tick (both directions)
	writes, reads []float64 // ms per direction: send path, receive path
	counts        linkCounts
	bad           int64  // packets lost, corrupted or out of order
	allocs        uint64 // heap allocations inside ExchangeInto (traced pass only)
}

// linkSide is one direction's sender state and receiver check.
type linkSide struct {
	dir     int
	tx, rx  *mac.Endpoint
	link    *phy.Link
	buf     phy.ExchangeBuf
	chunks  [][]byte
	nextTx  [linkVCs]uint32
	nextRx  [linkVCs]uint32
	scratch []byte
	okRx    uint64
	bad     int64
}

func newLinkSide(dir int, link *phy.Link) *linkSide {
	return &linkSide{dir: dir, link: link, scratch: make([]byte, linkPacketLen)}
}

// deliver checks one delivered packet against what was sent: right
// direction and VC, next sequence number, byte-equal body.
func (s *linkSide) deliver(in *linkInputs, vc int, p []byte) {
	seq := s.nextRx[vc]
	s.nextRx[vc]++
	if len(p) != linkPacketLen || int(p[0]) != s.dir || int(p[1]) != vc ||
		binary.LittleEndian.Uint32(p[2:6]) != seq || !bytes.Equal(p[linkHeaderLen:], in.body(vc, seq)) {
		s.bad++
		return
	}
	s.okRx++
}

func linkDesign(seed int64, workers int) core.Design {
	d := core.DefaultDesign()
	d.LengthM = linkLengthM
	d.Seed = seed
	d.Workers = workers
	return d
}

// linkSetup builds both PHY links (BuildPHY includes the bring-up
// probes) and the endpoint pair.
func linkSetup(in *linkInputs, workers int) (a, b *linkSide, builds []time.Duration, err error) {
	t0 := time.Now()
	fwd, err := linkDesign(linkFwdSeed, workers).BuildPHY()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("link-70m: forward BuildPHY: %w", err)
	}
	t1 := time.Now()
	rev, err := linkDesign(linkRevSeed, workers).BuildPHY()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("link-70m: reverse BuildPHY: %w", err)
	}
	builds = []time.Duration{t1.Sub(t0), time.Since(t1)}

	a, b = newLinkSide(0, fwd), newLinkSide(1, rev)
	cfg := mac.Config{
		ARQ: mac.ARQSelectiveRepeat, VCs: linkVCs, VCClass: []uint8{0, 1, 2},
		MaxPayload: linkPacketLen, PayloadBudget: linkBudget,
	}
	// A's deliveries are B's packets arriving over rev, and vice versa.
	epA, err := mac.NewEndpointVC(cfg, func(vc int, p []byte) { b.deliver(in, vc, p) })
	if err != nil {
		return nil, nil, nil, err
	}
	epB, err := mac.NewEndpointVC(cfg, func(vc int, p []byte) { a.deliver(in, vc, p) })
	if err != nil {
		return nil, nil, nil, err
	}
	a.tx, a.rx = epA, epB
	b.tx, b.rx = epB, epA
	return a, b, builds, nil
}

// direction moves one superframe from s.tx to s.rx and returns the send
// path's and receive path's wall time.
func (s *linkSide) direction(in *linkInputs, load bool, tr *tracer, parent int32, rep *linkRep, ac *allocCounter) (send, recv time.Duration, err error) {
	t0 := time.Now()
	if load {
		for vc := 0; vc < linkVCs; vc++ {
			for q := s.tx.VCSnapshot(vc).QueueDepth; q < linkBacklog; q++ {
				if err := s.tx.SendVC(vc, in.packet(s.scratch, s.dir, vc, s.nextTx[vc])); err != nil {
					return 0, 0, err
				}
				s.nextTx[vc]++
			}
		}
	}
	id := tr.begin("mac.build", parent)
	sf := s.tx.BuildSuperframe()
	tr.end(id, 1)
	s.chunks = s.chunks[:0]
	for off := 0; off < len(sf); off += linkPHYFrameLen {
		s.chunks = append(s.chunks, sf[off:min(off+linkPHYFrameLen, len(sf))])
	}
	var a0 uint64
	if ac != nil {
		a0 = ac.read()
	}
	id = tr.begin("phy.exchange", parent)
	out, st, err := s.link.ExchangeInto(&s.buf, s.chunks)
	tr.end(id, 1)
	if ac != nil {
		rep.allocs += ac.read() - a0
	}
	if err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	id = tr.begin("mac.accept", parent)
	s.rx.Accept(out)
	tr.end(id, 1)
	t2 := time.Now()

	c := &rep.counts
	c.exchanges++
	c.framesIn += st.FramesIn
	c.framesDelivered += st.FramesDelivered
	c.unitsLost += st.UnitsLost
	c.corrections += st.Corrections
	c.wireBytes += st.WireBytes
	c.payloadBytes += st.PayloadBytes
	return t1.Sub(t0), t2.Sub(t1), nil
}

// runLinkRep builds a fresh link pair and drives the fixed superframe
// sequence through it: linkLoadedSF loaded ticks, then unloaded ticks
// until both directions have delivered everything.
func runLinkRep(in *linkInputs, workers int, tr *tracer, ac *allocCounter) (linkRep, error) {
	var rep linkRep
	runtime.GC() // start every repetition from the same heap state
	t0 := time.Now()
	a, b, builds, err := linkSetup(in, workers)
	if err != nil {
		return rep, err
	}
	rep.setup = time.Since(t0)
	rep.phyBuild = builds

	c := &rep.counts
	cpu0 := cpuSeconds()
	start := time.Now()
	idle := func() bool {
		for _, e := range []*mac.Endpoint{a.tx, b.tx} {
			if st := e.Stats(); st.InFlight > 0 || st.QueueDepth > 0 {
				return false
			}
		}
		return true
	}
	for t := 0; t < linkLoadedSF+linkDrainMaxSF; t++ {
		load := t < linkLoadedSF
		if !load && idle() {
			break
		}
		tick := tr.begin("link.tick", 0)
		ts := time.Now()
		for _, s := range []*linkSide{a, b} {
			send, recv, err := s.direction(in, load, tr, tick, &rep, ac)
			if err != nil {
				return rep, fmt.Errorf("link-70m: tick %d direction %d: %w", t, s.dir, err)
			}
			rep.writes = append(rep.writes, ms(send))
			rep.reads = append(rep.reads, ms(recv))
		}
		rep.ticks = append(rep.ticks, ms(time.Since(ts)))
		tr.end(tick, 1)
		c.ticks++
	}
	rep.run = time.Since(start)
	rep.cpu = cpuSeconds() - cpu0

	for _, s := range []*linkSide{a, b} {
		st := s.tx.Stats()
		rst := s.rx.Stats()
		c.queued += st.PacketsQueued
		c.dataTx += st.DataTx
		c.retransmits += st.Retransmits
		c.timeouts += st.Timeouts
		c.creditStalls += st.CreditStalls
		c.delivered += rst.Delivered
		c.duplicates += rst.Duplicates
		c.reorder += rst.Reordered
		// Every queued packet must arrive intact and in order, and the
		// receiver's own count must agree with what the callback saw.
		rep.bad += int64(st.PacketsQueued) - int64(s.okRx)
		if rst.Delivered != s.okRx+uint64(s.bad) {
			rep.bad++
		}
	}
	return rep, nil
}

func runLink(cfg runConfig) (*result, error) {
	in := genLinkInputs(cfg.seed)
	r := newResult()
	if cfg.trace {
		return traceLink(cfg, &in, r)
	}

	var reps []linkRep
	err := repeat(cfg.seconds, func() error {
		rep, err := runLinkRep(&in, workers, nil, nil)
		reps = append(reps, rep)
		return err
	})
	if err != nil {
		return nil, err
	}

	var setup, runs, cpus, ticks, writes, reads []float64
	for i, rep := range reps {
		setup = append(setup, rep.setup.Seconds())
		runs = append(runs, rep.run.Seconds())
		cpus = append(cpus, rep.cpu)
		ticks = append(ticks, rep.ticks...)
		writes = append(writes, rep.writes...)
		reads = append(reads, rep.reads...)
		r.attempted += int64(rep.counts.queued)
		if rep.bad > 0 {
			r.fail(rep.bad, "repetition %d: %d packets lost, corrupted or out of order", i, rep.bad)
		}
		if rep.counts != reps[0].counts {
			r.fail(int64(rep.counts.queued), "repetition %d counts %+v differ from repetition 0 %+v", i, rep.counts, reps[0].counts)
		}
	}
	c := reps[0].counts
	r.note("link-70m: %d repetitions of %d ticks; %d RS corrections, %d SR retransmits, %d packets delivered per repetition",
		len(reps), c.ticks, c.corrections, c.retransmits, c.delivered)
	r.setN("setup_s", median(setup), len(setup))
	r.setN("run_s", median(runs), len(runs))
	r.setN("cpu_s", median(cpus), len(cpus))
	r.set("peak_rss_mb", peakRSSMB())
	setLatencies(r, reads, writes, ticks)
	return r, nil
}

// traceLink is the traced run: an untraced pass, a traced pass and a
// workers=1 pass over the same inputs. Their exact counts must agree;
// the per-layer metrics come from the traced pass.
func traceLink(cfg runConfig, in *linkInputs, r *result) (*result, error) {
	pass := func(budget time.Duration, workers int, tr *tracer, ac *allocCounter) ([]linkRep, error) {
		var reps []linkRep
		err := repeat(budget, func() error {
			rep, err := runLinkRep(in, workers, tr, ac)
			reps = append(reps, rep)
			return err
		})
		return reps, err
	}
	rt0 := readRuntime()
	plain, err := pass(cfg.seconds/3, workers, nil, nil)
	if err != nil {
		return nil, err
	}
	setRuntime(r, rt0, readRuntime())
	tr := newTracer()
	traced, err := pass(cfg.seconds/3, workers, tr, newAllocCounter())
	if err != nil {
		return nil, err
	}
	serial, err := pass(0, 1, nil, nil)
	if err != nil {
		return nil, err
	}

	ref := plain[0].counts
	for _, set := range []struct {
		name string
		reps []linkRep
	}{{"untraced", plain}, {"traced", traced}, {"workers=1", serial}} {
		for i, rep := range set.reps {
			r.attempted += int64(rep.counts.queued)
			if rep.bad > 0 {
				r.fail(rep.bad, "%s repetition %d: %d packets lost, corrupted or out of order", set.name, i, rep.bad)
			}
			if rep.counts != ref {
				r.fail(int64(rep.counts.queued), "%s repetition %d counts %+v differ from untraced %+v", set.name, i, rep.counts, ref)
			}
		}
	}
	r.note("exact counts identical across %d untraced, %d traced and %d workers=1 repetitions: %v",
		len(plain), len(traced), len(serial), r.failed == 0)

	var plainRun, tracedRun, builds []float64
	for _, rep := range plain {
		plainRun = append(plainRun, rep.run.Seconds())
	}
	var busy, total time.Duration
	for _, rep := range traced {
		tracedRun = append(tracedRun, rep.run.Seconds())
		for _, b := range rep.phyBuild {
			builds = append(builds, b.Seconds())
		}
		total += rep.run
	}
	n := float64(len(traced))
	ex := tr.durations("phy.exchange")
	for _, d := range ex {
		busy += time.Duration(d * 1e3)
	}
	c := traced[0].counts
	r.setN("phy.exchange_us_p50", median(ex), len(ex))
	r.setN("phy.exchange_us_p99", quantile(ex, 0.99), len(ex))
	r.set("phy.exchange_busy_frac", ratio(float64(busy), float64(total)))
	r.set("phy.allocs_per_exchange", ratio(float64(traced[0].allocs), float64(c.exchanges)))
	r.set("coding.corrections_per_sf", ratio(float64(c.corrections), float64(c.exchanges)))
	r.set("phy.units_lost", float64(c.unitsLost))
	r.set("phy.frame_delivery_ratio", ratio(float64(c.framesDelivered), float64(c.framesIn)))
	r.set("phy.wire_efficiency", ratio(float64(c.payloadBytes), float64(c.wireBytes)))
	r.setN("phy.build_s", median(builds), len(builds))

	build, accept := tr.durations("mac.build"), tr.durations("mac.accept")
	r.setN("mac.build_us_p50", median(build), len(build))
	r.setN("mac.accept_us_p50", median(accept), len(accept))
	r.set("mac.retransmits", float64(c.retransmits))
	r.set("mac.retx_ratio", ratio(float64(c.retransmits), float64(c.dataTx+c.retransmits)))
	r.set("mac.timeouts", float64(c.timeouts))
	r.set("mac.credit_stalls", float64(c.creditStalls))
	r.set("mac.duplicates", float64(c.duplicates))
	r.set("mac.reordered", float64(c.reorder))
	r.set("mac.delivered", float64(c.delivered))
	r.set("mac.goodput_frac", ratio(float64(c.delivered)*linkPacketLen, float64(c.wireBytes)))

	r.setIdle("netsim.", "fleetd.", "scenario.", "telemetry.", "harness.gen_lag")
	r.set("harness.trace_overhead_frac", median(tracedRun)/median(plainRun)-1)
	setSelfTimes(r, tr, n)
	return r, writeTrace(cfg, "link-70m", tr, r)
}
