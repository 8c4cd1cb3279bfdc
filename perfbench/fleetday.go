package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"mosaic/internal/faultinject"
	"mosaic/internal/netsim"
	"mosaic/internal/netsim/workload"
)

// fleet-day: the netsim flow engine at E24 scale. A 12-pod fleet (1,752
// links, 960 hosts) runs one diurnal day of 24 one-second epochs whose
// peak offers 1.8x the access capacity. Every epoch publishes each
// link's aged capacity fraction, injects the epoch's arrivals, and steps
// the sharded engine.
const (
	dayPods         = 12
	dayLeaves       = 10
	daySpines       = 6
	dayHostsPerLeaf = 8
	dayLinkRate     = 100e9
	dayEpochs       = 24
	dayMeanBits     = 3e9
	dayPeakLoad     = 1.8 // rho(e) = peak/2 * (1 - cos(2*pi*e/24))
	dayCrossFrac    = 0.10
	dayMeanDecay    = 0.003 // per-epoch mean exponential capacity decay
	daySparingFloor = 0.7
	dayHosts        = dayPods * dayLeaves * dayHostsPerLeaf
	daySetups       = 8 // extra timed set-ups before each day
)

// dayFlow is one generated arrival: host indices into Topology.Hosts().
type dayFlow struct {
	src, dst int32
	bits     float64
	hash     uint64
}

// dayInputs is the generated day: the aging seed and each epoch's
// arrivals.
type dayInputs struct {
	agingSeed int64
	epochs    [][]dayFlow
}

func (in *dayInputs) flows() int {
	n := 0
	for _, e := range in.epochs {
		n += len(e)
	}
	return n
}

// genDayInputs draws the diurnal arrivals: Poisson-free fixed counts per
// epoch from the load curve, WebSearch sizes scaled to dayMeanBits, and
// a dayCrossFrac share of destinations in another pod.
func genDayInputs(seed int64) dayInputs {
	rng := rand.New(rand.NewSource(seed))
	in := dayInputs{agingSeed: rng.Int63()}
	dist := workload.WebSearch()
	scale := dayMeanBits / dist.MeanBits()
	perPod := dayLeaves * dayHostsPerLeaf
	for e := 0; e < dayEpochs; e++ {
		load := dayPeakLoad / 2 * (1 - math.Cos(2*math.Pi*float64(e)/dayEpochs))
		n := int(load*dayHosts*dayLinkRate/dayMeanBits + 0.5)
		flows := make([]dayFlow, n)
		for i := range flows {
			src := rng.Intn(dayHosts)
			pod := src / perPod
			var dst int
			if rng.Float64() < dayCrossFrac {
				dst = ((pod+1+rng.Intn(dayPods-1))%dayPods)*perPod + rng.Intn(perPod)
			} else if dst = pod*perPod + rng.Intn(perPod); dst == src {
				dst = pod*perPod + (src+1)%perPod
			}
			flows[i] = dayFlow{int32(src), int32(dst), dist.SampleBits(rng) * scale, rng.Uint64()}
		}
		in.epochs = append(in.epochs, flows)
	}
	return in
}

// dayCounts are the exact simulated statistics of one day.
type dayCounts struct {
	arrivals, unroutable, completed, active int
	peakActive, peakCross                   int
	waterfills, rated                       uint64
	digest                                  string // sha256[:8] of the epoch event log
}

type dayRep struct {
	setup, run              time.Duration
	cpu                     float64
	epochs, steps           []float64 // ms per epoch and per Step
	injects                 []float64 // ms per Inject call: every call traced, every 16th untraced
	counts                  dayCounts
	allocObjects, allocByte uint64
	checkErr                error // first CheckInvariants failure (check pass only)
	fs                      *netsim.FleetSim
}

// daySetup builds the fleet topology, its aging model and the engine.
func daySetup(in *dayInputs, workers int) (*netsim.FleetSim, *faultinject.FleetAging, error) {
	topo, err := netsim.NewFleet(dayPods, dayLeaves, daySpines, dayHostsPerLeaf, dayLinkRate)
	if err != nil {
		return nil, nil, err
	}
	aging, err := faultinject.NewFleetAging(in.agingSeed, len(topo.Links), dayMeanDecay, daySparingFloor)
	if err != nil {
		return nil, nil, err
	}
	return netsim.NewFleetSim(topo, workers), aging, nil
}

// runDay builds the fleet and plays the day through it. tr records spans;
// check installs CheckInvariants at every epoch's resolved point.
func runDay(in *dayInputs, workers int, tr *tracer, check bool) (dayRep, error) {
	var rep dayRep
	runtime.GC() // start every day from the same heap state
	t0 := time.Now()
	fs, aging, err := daySetup(in, workers)
	if err != nil {
		return rep, err
	}
	rep.setup = time.Since(t0)
	topo := fs.Topo
	if check {
		fs.SetResolvedHook(func() {
			if err := fs.CheckInvariants(); err != nil && rep.checkErr == nil {
				rep.checkErr = fmt.Errorf("epoch %d: %w", int(fs.Now()), err)
			}
		})
	}
	hosts := topo.Hosts()
	if tr != nil {
		rep.injects = make([]float64, 0, in.flows())
	} else {
		rep.injects = make([]float64, 0, in.flows()/16+dayEpochs)
	}

	c := &rep.counts
	rt0 := readRuntime()
	cpu0 := cpuSeconds()
	start := time.Now()
	for e, flows := range in.epochs {
		te := time.Now()
		ep := tr.begin("fleet.epoch", 0)
		id := tr.begin("netsim.setfrac", ep)
		for l := range topo.Links {
			fs.SetLinkFraction(l, aging.Fraction(l, e))
		}
		tr.end(id, len(topo.Links))

		id = tr.begin("netsim.inject", ep)
		for i, f := range flows {
			// Every call is timed in the traced run; the untraced run
			// samples every 16th for write_p50_ms.
			timed := tr != nil || i%16 == 0
			var ti time.Time
			if timed {
				ti = time.Now()
			}
			_, err := fs.Inject(hosts[f.src], hosts[f.dst], f.bits, f.hash)
			if timed {
				rep.injects = append(rep.injects, ms(time.Since(ti)))
			}
			if err != nil {
				c.unroutable++
			}
		}
		tr.end(id, len(flows))
		c.arrivals += len(flows)
		c.peakActive = max(c.peakActive, fs.ActiveFlows())
		c.peakCross = max(c.peakCross, fs.CrossFlows())
		ts := time.Now()

		id = tr.begin("netsim.step", ep)
		fs.Step(1)
		tr.end(id, 1)
		tr.end(ep, 1)
		rep.steps = append(rep.steps, ms(time.Since(ts)))
		rep.epochs = append(rep.epochs, ms(time.Since(te)))
	}
	rep.run = time.Since(start)
	rep.cpu = cpuSeconds() - cpu0
	rt1 := readRuntime()
	rep.allocObjects = rt1.allocObjects - rt0.allocObjects
	rep.allocByte = rt1.allocBytes - rt0.allocBytes

	c.completed = len(fs.Records())
	c.active = fs.ActiveFlows()
	c.waterfills = fs.Waterfills()
	c.rated = fs.RatedFlows()
	h := sha256.Sum256([]byte(strings.Join(fs.EventLog(), "\n")))
	c.digest = hex.EncodeToString(h[:8])
	rep.fs = fs
	return rep, nil
}

// checkDay counts the day's failed operations: every arrival must be
// completed, still active, or rejected as unroutable, and the engine's
// invariants must hold wherever they were checked.
func checkDay(r *result, name string, rep dayRep, ref dayCounts) {
	c := rep.counts
	r.attempted += int64(c.arrivals)
	if lost := c.arrivals - c.completed - c.active - c.unroutable; lost != 0 {
		r.fail(int64(abs(lost)), "%s: %d arrivals != %d completed + %d active + %d unroutable",
			name, c.arrivals, c.completed, c.active, c.unroutable)
	}
	if rep.checkErr != nil {
		r.fail(1, "%s: CheckInvariants: %v", name, rep.checkErr)
	}
	if c != ref {
		r.fail(int64(c.arrivals), "%s: counts %+v differ from the first day's %+v", name, c, ref)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func runFleetDay(cfg runConfig) (*result, error) {
	in := genDayInputs(cfg.seed)
	r := newResult()
	if cfg.trace {
		return traceFleetDay(cfg, &in, r)
	}
	// Set-up is about a millisecond against a day of seconds: time extra
	// set-ups before every day, so that their median samples the whole
	// run rather than one moment of it.
	var setup []float64
	var reps []dayRep
	err := repeat(cfg.seconds, func() error {
		runtime.GC()
		for i := 0; i < daySetups; i++ {
			t0 := time.Now()
			if _, _, err := daySetup(&in, workers); err != nil {
				return err
			}
			setup = append(setup, time.Since(t0).Seconds())
		}
		rep, err := runDay(&in, workers, nil, false)
		rep.fs = nil // let the finished engine go before the next day
		reps = append(reps, rep)
		return err
	})
	if err != nil {
		return nil, err
	}
	var runs, cpus, injects []float64
	for i, rep := range reps {
		setup = append(setup, rep.setup.Seconds())
		runs = append(runs, rep.run.Seconds())
		cpus = append(cpus, rep.cpu)
		injects = append(injects, rep.injects...)
		checkDay(r, fmt.Sprintf("day %d", i), rep, reps[0].counts)
	}
	// Every day plays the same 24 epochs, so the epoch and Step times are
	// taken per epoch as the median over the days. Pooling the days would
	// report the slowest day's copy of one epoch.
	epochs := epochMedians(reps, func(d dayRep) []float64 { return d.epochs })
	steps := epochMedians(reps, func(d dayRep) []float64 { return d.steps })
	r.note("fleet-day: day wall times %s s; CPU times %s s", fmtSeconds(runs), fmtSeconds(cpus))
	c := reps[0].counts
	r.note("fleet-day: %d days; %d arrivals, %d unroutable, peak %d active (%d cross-pod), %d waterfills rated %d flows, log sha %s",
		len(reps), c.arrivals, c.unroutable, c.peakActive, c.peakCross, c.waterfills, c.rated, c.digest)
	r.setN("setup_s", median(setup), len(setup))
	r.setN("run_s", median(runs), len(runs))
	r.setN("cpu_s", median(cpus), len(cpus))
	r.set("peak_rss_mb", peakRSSMB())
	setLatencies(r, steps, injects, epochs)
	// The day's epochs differ in load, and the twelve GC cycles of a day
	// land in some of them and not others, so the one epoch a median of
	// 24 picks jumps between runs. The central epoch time is taken as the
	// mean of the middle half of the 24 instead.
	r.setN("read_p50_ms", midMean(steps), len(steps))
	r.setN("epoch_p50_ms", midMean(epochs), len(epochs))
	return r, nil
}

// epochMedians returns, for each epoch of the day, the median over the
// days of one per-epoch series.
func epochMedians(reps []dayRep, series func(dayRep) []float64) []float64 {
	out := make([]float64, dayEpochs)
	for e := range out {
		xs := make([]float64, len(reps))
		for i, rep := range reps {
			xs[i] = series(rep)[e]
		}
		out[e] = median(xs)
	}
	return out
}

// traceFleetDay plays the same day untraced, traced, and with one worker
// and the invariant hook; the exact counts of all three must agree.
func traceFleetDay(cfg runConfig, in *dayInputs, r *result) (*result, error) {
	rt0 := readRuntime()
	plain, err := runDay(in, workers, nil, false)
	if err != nil {
		return nil, err
	}
	setRuntime(r, rt0, readRuntime())
	plain.fs = nil
	tr := newTracer()
	traced, err := runDay(in, workers, tr, false)
	if err != nil {
		return nil, err
	}
	// Routing's share of Inject: Topology.Path on the same (src, dst,
	// hash) as every 16th arrival, outside any span.
	var path []float64
	hosts := traced.fs.Topo.Hosts()
	for _, flows := range in.epochs {
		for i := 0; i < len(flows); i += 16 {
			f := flows[i]
			t0 := time.Now()
			_, err := traced.fs.Topo.Path(hosts[f.src], hosts[f.dst], f.hash)
			path = append(path, us(time.Since(t0)))
			if err != nil {
				return nil, fmt.Errorf("fleet-day: Topology.Path probe: %w", err)
			}
		}
	}
	traced.fs = nil
	serial, err := runDay(in, 1, nil, true)
	if err != nil {
		return nil, err
	}
	serial.fs = nil
	checkDay(r, "untraced day", plain, plain.counts)
	checkDay(r, "traced day", traced, plain.counts)
	checkDay(r, "workers=1 day with CheckInvariants", serial, plain.counts)
	r.note("exact counts identical across untraced, traced and workers=1 days: %v; log sha %s",
		r.failed == 0, plain.counts.digest)

	c := traced.counts
	busy := func(name string) float64 {
		var t float64
		for _, d := range tr.durations(name) {
			t += d
		}
		return t / 1e6
	}
	steps := tr.durations("netsim.step")
	for i := range steps {
		steps[i] /= 1e3
	}
	injectUS := traced.injects
	for i := range injectUS {
		injectUS[i] *= 1e3
	}
	r.setN("netsim.inject_us_p50", median(injectUS), len(injectUS))
	r.set("netsim.inject_busy_s", busy("netsim.inject"))
	r.setN("netsim.path_us_p50", median(path), len(path))
	r.set("netsim.setfrac_busy_s", busy("netsim.setfrac"))
	r.setN("netsim.step_ms_p50", median(steps), len(steps))
	r.setN("netsim.step_ms_max", maxOf(steps), len(steps))
	r.set("netsim.step_busy_s", busy("netsim.step"))
	r.set("netsim.waterfills", float64(c.waterfills))
	r.set("netsim.rated_flows", float64(c.rated))
	r.set("netsim.rated_per_done", ratio(float64(c.rated), float64(c.completed)))
	r.set("netsim.peak_active", float64(c.peakActive))
	r.set("netsim.peak_cross", float64(c.peakCross))
	r.set("netsim.unroutable", float64(c.unroutable))
	r.set("netsim.allocs_per_flow", ratio(float64(plain.allocObjects), float64(plain.counts.arrivals)))
	r.set("netsim.bytes_per_flow", ratio(float64(plain.allocByte), float64(plain.counts.arrivals)))

	r.setIdle("phy.", "coding.", "mac.", "fleetd.", "scenario.", "telemetry.", "harness.gen_lag")
	r.set("harness.trace_overhead_frac", traced.run.Seconds()/plain.run.Seconds()-1)
	setSelfTimes(r, tr, 1)
	return r, writeTrace(cfg, "fleet-day", tr, r)
}
