package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mosaic/internal/fleetd"
	"mosaic/internal/telemetry"
)

// fleetd-serve: an in-process fleetd.Fleet of 2,000 serving links behind
// fleetd.NewServer(...).Handler() on loopback. One goroutine steps the
// fleet on the daemon's default 50 ms wall-clock ticker while an
// open-loop generator sends a seeded op mix, Poisson arrivals averaging
// 400 req/s, over two connections.
const (
	serveLinks      = 2000
	serveRate       = 400 // mean requests per second (Poisson arrivals)
	serveEpoch      = 50 * time.Millisecond
	serveSetups     = 5           // set-ups per run; set-up time is their median
	serveKill       = 3           // channels per degrade: the 2 spares plus one, so the link degrades
	serveRenegDelay = time.Second // degrade -> renegotiate gap (the step rotor visits every link in 16 epochs)
	serveListLimit  = 50
	serveScenario   = "E26"
)

type opKind uint8

const (
	opInspect opKind = iota
	opList
	opFleet
	opMetrics
	opCreate
	opCreateScenario
	opDegrade
	opRenegotiate
	opRetire
	numOps
)

var opNames = [numOps]string{"inspect", "list", "fleet", "metrics",
	"create", "create-scenario", "degrade", "renegotiate", "retire"}

// opMix is each op's share of the schedule; reads first. Point reads
// (inspect, fleet) are 85 % of the reads, so the read median falls
// inside their cluster, not on the edge between them and the slower
// list and scrape replies, where the density is thin and the median
// jumps with any shift in the tail.
var opMix = [numOps]float64{0.60, 0.06, 0.08, 0.06, 0.03, 0.03, 0.04, 0.04, 0.06}

func (k opKind) read() bool { return k <= opMetrics }

// serveOp is one scheduled request: when it is due (from the start of
// the measured phase), what it does, and the link it names.
type serveOp struct {
	due  time.Duration
	kind opKind
	link int
}

// genSchedule draws the op schedule for d seconds of load: Poisson
// arrivals at serveRate, as from many independent users, so requests
// fall at every phase of the epoch ticker rather than locking to it.
// Targets come
// from a seeded permutation of the 2,000 links admitted at set-up, in
// disjoint pools, so every op is legal when it runs: a link is retired
// at most once and never touched again, a degraded link is renegotiated
// only serveRenegDelay later (an early renegotiate slot inspects
// instead), and reads name links that are never retired.
func genSchedule(seed int64, d time.Duration) ([]serveOp, error) {
	rng := rand.New(rand.NewSource(seed))
	var ops []serveOp
	var count [numOps]int
	for due := time.Duration(0); ; {
		due += time.Duration(rng.ExpFloat64() / serveRate * float64(time.Second))
		if due >= d {
			break
		}
		u := rng.Float64()
		k := opKind(0)
		for ; k < numOps-1 && u >= opMix[k]; k++ {
			u -= opMix[k]
		}
		ops = append(ops, serveOp{due: due, kind: k})
		count[k]++
	}
	// Retire and degrade targets are used once each; keep a quarter of
	// the links for reads.
	if count[opRetire]+count[opDegrade] > serveLinks*3/4 {
		return nil, fmt.Errorf("fleetd-serve: %v of load needs more than the %d set-up links", d, serveLinks)
	}
	perm := rng.Perm(serveLinks)
	retire, perm := perm[:count[opRetire]], perm[count[opRetire]:]
	keep := perm // never retired
	degrade := perm[:count[opDegrade]]
	type pending struct {
		link int
		at   time.Duration
	}
	var degraded []pending
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case opRetire:
			op.link, retire = retire[0], retire[1:]
		case opDegrade:
			op.link, degrade = degrade[0], degrade[1:]
			degraded = append(degraded, pending{op.link, op.due})
		case opRenegotiate:
			if len(degraded) > 0 && op.due-degraded[0].at >= serveRenegDelay {
				op.link, degraded = degraded[0].link, degraded[1:]
			} else {
				op.kind = opInspect
			}
		}
		if op.kind == opInspect {
			op.link = keep[rng.Intn(len(keep))]
		}
	}
	return ops, nil
}

// outcome is one request as the client saw it.
type outcome struct {
	op                serveOp
	due, sent, done   time.Time
	free              time.Time // previous reply on the same connection
	status, bodyBytes int
	body              []byte // the reply, held until servePass checks it
	err               error
}

// lag is how late the generator itself sent the request: time past the
// due time, or past the previous reply when the connection was still
// busy at the due time (that wait is the system's, and counts only in
// the latency).
func (o *outcome) lag() time.Duration {
	ready := o.due
	if o.free.After(ready) {
		ready = o.free
	}
	return o.sent.Sub(ready)
}

// serveRig is the running service: the fleet, its HTTP server, and the
// epoch ticker.
type serveRig struct {
	fleet *fleetd.Fleet
	srv   *http.Server
	addr  string

	mu       sync.Mutex
	tracer   *tracer   // non-nil while a traced pass runs
	steps    []float64 // ms per Fleet.Step
	stepSpan [][2]time.Time

	handlerTimes sync.Map // span id -> handler [start, end]
	stop         chan struct{}
	wg           sync.WaitGroup
}

// serveSetup builds the fleet and admits serveLinks links until every one
// of them is serving.
func serveSetup(seed int64) (*fleetd.Fleet, *telemetry.Registry, error) {
	cfg := fleetd.DefaultConfig()
	cfg.Seed = seed
	cfg.Workers = workers
	reg := telemetry.NewRegistry()
	f, err := fleetd.New(cfg, reg)
	if err != nil {
		return nil, nil, err
	}
	if ids, err := f.Create(serveLinks, nil); err != nil || len(ids) != serveLinks {
		return nil, nil, fmt.Errorf("fleetd-serve: admitted %d/%d links: %v", len(ids), serveLinks, err)
	}
	for i := 0; f.Snapshot().States[fleetd.StateServing.String()] < serveLinks; i++ {
		if i == 100 {
			return nil, nil, fmt.Errorf("fleetd-serve: links not serving after %d epochs: %v", i, f.Snapshot().States)
		}
		f.Step()
	}
	return f, reg, nil
}

func startRig(f *fleetd.Fleet, reg *telemetry.Registry, traced bool) (*serveRig, error) {
	rig := &serveRig{fleet: f, stop: make(chan struct{})}
	h := fleetd.NewServer(f, reg).Handler()
	if traced {
		h = rig.wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rig.addr = ln.Addr().String()
	rig.srv = &http.Server{Handler: h}
	rig.wg.Add(2)
	go func() {
		defer rig.wg.Done()
		_ = rig.srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	go func() {
		defer rig.wg.Done()
		rig.tick()
	}()
	return rig, nil
}

// tick steps the fleet on the epoch ticker until stopped.
func (rig *serveRig) tick() {
	t := time.NewTicker(serveEpoch)
	defer t.Stop()
	for {
		select {
		case <-rig.stop:
			return
		case due := <-t.C:
			t0 := time.Now()
			rig.fleet.Step()
			t1 := time.Now()
			rig.mu.Lock()
			if tr := rig.tracer; tr != nil {
				ep := tr.record("fleetd.epoch", 0, due, t1)
				tr.record("fleetd.step", ep, t0, t1)
			}
			rig.steps = append(rig.steps, ms(t1.Sub(t0)))
			rig.stepSpan = append(rig.stepSpan, [2]time.Time{t0, t1})
			rig.mu.Unlock()
		}
	}
}

// setTracer starts (tr != nil) or ends span recording of epochs. After
// setTracer(nil) returns, the ticker adds no span to the old tracer, so
// its spans can be read without the tracer's lock.
func (rig *serveRig) setTracer(tr *tracer) {
	rig.mu.Lock()
	rig.tracer = tr
	rig.mu.Unlock()
}

// takeSteps returns and clears the step samples since the last call.
func (rig *serveRig) takeSteps() ([]float64, [][2]time.Time) {
	rig.mu.Lock()
	defer rig.mu.Unlock()
	s, sp := rig.steps, rig.stepSpan
	rig.steps, rig.stepSpan = nil, nil
	return s, sp
}

func (rig *serveRig) close() {
	close(rig.stop)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = rig.srv.Shutdown(ctx) // the pass is over; a slow close changes no result
	rig.wg.Wait()
}

const spanHeader = "X-Perfbench-Span"

// wrap times every request inside the fleetd handler and records it as a
// child of the client's request span.
func (rig *serveRig) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		if id := r.Header.Get(spanHeader); id != "" {
			rig.handlerTimes.Store(id, [2]time.Time{t0, t1})
		}
	})
}

// client is one keep-alive connection working through its share of the
// schedule. It writes each request and parses the reply on its own
// goroutine, without http.Client's per-connection read and write loops,
// so the harness adds no goroutine hand-offs of its own to the latency
// it measures.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	base string
}

func dialClient(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, br: bufio.NewReader(conn), base: "http://" + addr}, nil
}

func (c *client) request(op serveOp) (*http.Request, error) {
	var method, path, body string
	switch op.kind {
	case opInspect:
		method, path = http.MethodGet, "/v1/links/"+strconv.Itoa(op.link)
	case opList:
		method, path = http.MethodGet, "/v1/links?limit="+strconv.Itoa(serveListLimit)
	case opFleet:
		method, path = http.MethodGet, "/v1/fleet"
	case opMetrics:
		method, path = http.MethodGet, "/metrics"
	case opCreate:
		method, path, body = http.MethodPost, "/v1/links", `{"count":1}`
	case opCreateScenario:
		method, path, body = http.MethodPost, "/v1/links", `{"count":1,"scenario":"`+serveScenario+`"}`
	case opDegrade:
		method, path, body = http.MethodPost, "/v1/links/"+strconv.Itoa(op.link)+"/degrade", `{"kill":`+strconv.Itoa(serveKill)+`}`
	case opRenegotiate:
		method, path = http.MethodPost, "/v1/links/"+strconv.Itoa(op.link)+"/renegotiate"
	case opRetire:
		method, path = http.MethodPost, "/v1/links/"+strconv.Itoa(op.link)+"/retire"
	}
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	return http.NewRequest(method, c.base+path, rd)
}

// run sends ops at their due times (open loop: a late reply delays the
// next send on this connection, and latency counts from the due time).
func (c *client) run(start time.Time, ops []serveOp, tr *tracer, out []outcome) {
	var free time.Time // when the connection's previous reply arrived
	for i, op := range ops {
		o := &out[i]
		o.op = op
		o.due = start.Add(op.due)
		o.free = free
		sleepUntil(o.due)
		req, err := c.request(op)
		if err != nil {
			o.err = err
			continue
		}
		o.sent = time.Now()
		var id int32
		if tr != nil {
			id = tr.begin("client.request", 0)
			req.Header.Set(spanHeader, strconv.Itoa(int(id)))
		}
		o.status, o.body, o.err = c.do(req)
		o.done = time.Now()
		tr.end(id, 1)
		o.bodyBytes = len(o.body)
		free = o.done
	}
}

// do sends one request and reads the whole reply. Checking it is left to
// servePass, after the pass, so that the harness's own decoding counts
// in no latency and delays no send.
func (c *client) do(req *http.Request) (int, []byte, error) {
	if err := req.Write(c.conn); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// checkReply validates one reply: status, decodable body, and the fields
// the op determines.
func checkReply(op serveOp, status int, body []byte) error {
	want := http.StatusOK
	if op.kind == opCreate || op.kind == opCreateScenario {
		want = http.StatusCreated
	}
	if status != want {
		return fmt.Errorf("%s: status %d, want %d: %s", opNames[op.kind], status, want, bytes.TrimSpace(body))
	}
	dec := func(v any) error {
		d := json.NewDecoder(bytes.NewReader(body))
		d.DisallowUnknownFields()
		if err := d.Decode(v); err != nil {
			return fmt.Errorf("%s: undecodable reply: %v", opNames[op.kind], err)
		}
		return nil
	}
	switch op.kind {
	case opInspect:
		var info fleetd.LinkInfo
		if err := dec(&info); err != nil {
			return err
		}
		if _, ok := fleetd.StateByName(info.State); info.ID != op.link || !ok {
			return fmt.Errorf("inspect %d: got link %d in state %q", op.link, info.ID, info.State)
		}
	case opList:
		var infos []fleetd.LinkInfo
		if err := dec(&infos); err != nil {
			return err
		}
		if len(infos) == 0 || len(infos) > serveListLimit {
			return fmt.Errorf("list: %d links for limit %d", len(infos), serveListLimit)
		}
		for i := 1; i < len(infos); i++ {
			if infos[i].ID <= infos[i-1].ID {
				return fmt.Errorf("list: IDs out of order at %d", i)
			}
		}
	case opFleet:
		var snap fleetd.Snapshot
		if err := dec(&snap); err != nil {
			return err
		}
		live := 0
		for s, n := range snap.States {
			if s != fleetd.StateRetired.String() {
				live += n
			}
		}
		if live != snap.LiveLinks || snap.LiveLinks == 0 {
			return fmt.Errorf("fleet: states sum to %d, live_links %d", live, snap.LiveLinks)
		}
	case opMetrics:
		if !bytes.Contains(body, []byte("mosaic_fleetd_links_live ")) {
			return errors.New("metrics: exposition lacks mosaic_fleetd_links_live")
		}
	case opCreate, opCreateScenario:
		var resp struct {
			IDs  []int  `json:"ids"`
			Shed string `json:"shed"`
		}
		if err := dec(&resp); err != nil {
			return err
		}
		if len(resp.IDs) != 1 || resp.Shed != "" {
			return fmt.Errorf("%s: ids %v shed %q", opNames[op.kind], resp.IDs, resp.Shed)
		}
	default:
		var resp struct {
			Link   int    `json:"link"`
			Killed int    `json:"killed"`
			State  string `json:"state"`
		}
		if err := dec(&resp); err != nil {
			return err
		}
		wantState := map[opKind]string{
			opDegrade:     "",
			opRenegotiate: fleetd.StateRenegotiating.String(),
			opRetire:      fleetd.StateDraining.String(),
		}[op.kind]
		if resp.Link != op.link || resp.State != wantState || (op.kind == opDegrade && resp.Killed != serveKill) {
			return fmt.Errorf("%s %d: reply %+v", opNames[op.kind], op.link, resp)
		}
	}
	return nil
}

// sleepUntil waits until t. The Go timer wakes a parked goroutine up to
// about a millisecond late on an idle process, which would dominate a
// sub-millisecond read latency, so it parks only until a millisecond
// before t and covers the rest with a nanosleep system call, which the
// kernel's high-resolution timer ends within tens of microseconds.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR only ends the wait early
	}
}

// servePass runs ops (due offsets relative to start) over two
// connections and returns every outcome in schedule order, each reply
// checked against the API contract once the pass is over.
func servePass(rig *serveRig, ops []serveOp, start time.Time, tr *tracer) ([]outcome, error) {
	out := make([]outcome, len(ops))
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		cl, err := dialClient(rig.addr)
		if err != nil {
			wg.Wait()
			return nil, fmt.Errorf("fleetd-serve: %w", err)
		}
		var mine []serveOp
		var idx []int
		for i := c; i < len(ops); i += workers {
			mine = append(mine, ops[i])
			idx = append(idx, i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cl.conn.Close()
			res := make([]outcome, len(mine))
			cl.run(start, mine, tr, res)
			for k, o := range res {
				out[idx[k]] = o
			}
		}()
	}
	wg.Wait()
	for i := range out {
		o := &out[i]
		if o.err == nil {
			o.err = checkReply(o.op, o.status, o.body)
		}
		o.body = nil
	}
	return out, nil
}

// busySpan is the time from the first request's due time to the last
// reply. It exceeds the schedule's length only when the service falls
// behind the offered load.
func busySpan(outs []outcome) time.Duration {
	var last time.Time
	for _, o := range outs {
		if o.done.After(last) {
			last = o.done
		}
	}
	if len(outs) == 0 || last.IsZero() {
		return 0
	}
	return last.Sub(outs[0].due)
}

// tally counts failed requests by cause and returns the latencies from
// due time of reads and writes, in ms.
func tally(r *result, outs []outcome) (reads, writes []float64, conflicts, notFound int) {
	shown := 0
	for _, o := range outs {
		r.attempted++
		if o.err != nil || o.status == 0 {
			switch o.status {
			case http.StatusConflict:
				conflicts++
			case http.StatusNotFound:
				notFound++
			}
			r.failed++
			if shown < 5 {
				r.note("FAILED: %s %d: %v", opNames[o.op.kind], o.op.link, o.err)
				shown++
			}
			continue
		}
		lat := ms(o.done.Sub(o.due))
		if o.op.kind.read() {
			reads = append(reads, lat)
		} else {
			writes = append(writes, lat)
		}
	}
	return reads, writes, conflicts, notFound
}

// checkFleet checks the final snapshot: admitted - retired = live.
func checkFleet(r *result, f *fleetd.Fleet) {
	s := f.Snapshot()
	r.attempted++
	if int(s.Admission.Admitted)-int(s.Admission.Retired) != s.LiveLinks {
		r.fail(1, "fleet snapshot: admitted %d - retired %d != live %d",
			s.Admission.Admitted, s.Admission.Retired, s.LiveLinks)
	}
}

func runServe(cfg runConfig) (*result, error) {
	ops, err := genSchedule(cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	r := newResult()
	var setups []float64
	var f *fleetd.Fleet
	var reg *telemetry.Registry
	for i := 0; i < serveSetups; i++ {
		f = nil // let the previous fleet go before building the next
		runtime.GC()
		t0 := time.Now()
		if f, reg, err = serveSetup(cfg.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()
	rig, err := startRig(f, reg, cfg.trace)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	if cfg.trace {
		return traceServe(cfg, rig, ops, r, median(setups))
	}

	rig.takeSteps()
	cpu0 := cpuSeconds()
	start := time.Now()
	outs, err := servePass(rig, ops, start, nil)
	if err != nil {
		return nil, err
	}
	cpu := cpuSeconds() - cpu0
	steps, _ := rig.takeSteps()
	checkFleet(r, f)

	reads, writes, _, _ := tally(r, outs)
	r.note("fleetd-serve: %d requests (%d reads, %d writes) over %d connections; %d epochs",
		len(outs), len(reads), len(writes), workers, len(steps))
	noteKinds(r, outs)
	r.setN("setup_s", median(setups), len(setups))
	r.set("run_s", busySpan(outs).Seconds())
	r.set("cpu_s", cpu)
	r.set("peak_rss_mb", peakRSSMB())
	setLatencies(r, reads, writes, steps)
	return r, nil
}

// traceServe splits the schedule in two: the first half runs untraced,
// the second traced, against the same running fleet.
func traceServe(cfg runConfig, rig *serveRig, ops []serveOp, r *result, setup float64) (*result, error) {
	half := cfg.seconds / 2
	cut := sort.Search(len(ops), func(i int) bool { return ops[i].due >= half })

	rig.takeSteps()
	rt0 := readRuntime()
	start := time.Now()
	plainOuts, err := servePass(rig, ops[:cut], start, nil)
	if err != nil {
		return nil, err
	}
	setRuntime(r, rt0, readRuntime())
	plainSteps, _ := rig.takeSteps()

	tr := newTracer()
	rig.setTracer(tr)
	pool0, adm0 := rig.fleet.PoolStats(), rig.fleet.Admission()
	passStart := start.Add(half)
	outs, err := servePass(rig, ops[cut:], start, tr)
	if err != nil {
		return nil, err
	}
	passLen := time.Since(passStart)
	rig.setTracer(nil)
	steps, stepSpans := rig.takeSteps()
	pool1, adm1 := rig.fleet.PoolStats(), rig.fleet.Admission()
	checkFleet(r, rig.fleet)

	tally(r, plainOuts)
	_, _, conflicts, notFound := tally(r, outs)

	// Handler spans are children of the client spans that carried their id.
	var handler, transport, genLag, creates, scenarioCreates, scrapes, scrapeBytes []float64
	rig.handlerTimes.Range(func(k, v any) bool {
		id, _ := strconv.Atoi(k.(string))
		iv := v.([2]time.Time)
		tr.record("telemetry.handler", int32(id), iv[0], iv[1])
		return true
	})
	parentDur := map[int32]time.Duration{}
	for _, s := range tr.spans {
		if s.name == "client.request" {
			parentDur[s.id] = s.end - s.start
		}
	}
	for _, s := range tr.spans {
		if s.name == "telemetry.handler" {
			d := s.end - s.start
			handler = append(handler, us(d))
			transport = append(transport, us(parentDur[s.parent]-d))
		}
	}
	blocked := 0
	for _, o := range outs {
		genLag = append(genLag, ms(o.lag()))
		lat := us(o.done.Sub(o.sent))
		switch o.op.kind {
		case opCreate:
			creates = append(creates, lat)
		case opCreateScenario:
			scenarioCreates = append(scenarioCreates, lat)
		case opMetrics:
			scrapes = append(scrapes, lat)
			scrapeBytes = append(scrapeBytes, float64(o.bodyBytes))
		}
		i := sort.Search(len(stepSpans), func(i int) bool { return stepSpans[i][1].After(o.sent) })
		if i < len(stepSpans) && stepSpans[i][0].Before(o.done) {
			blocked++
		}
	}

	r.set("fleetd.step_busy_frac", ratio(sum(steps), ms(passLen)))
	r.set("fleetd.blocked_by_step_frac", ratio(float64(blocked), float64(len(outs))))
	tasks, steals := pool1.Tasks-pool0.Tasks, pool1.Steals-pool0.Steals
	r.set("fleetd.pool_tasks", float64(tasks))
	r.set("fleetd.pool_steals", float64(steals))
	r.set("fleetd.steal_ratio", ratio(float64(steals), float64(tasks)))
	admitted, shed := adm1.Admitted-adm0.Admitted, adm1.Sheds()-adm0.Sheds()
	r.set("fleetd.admitted", float64(admitted))
	r.set("fleetd.shed", float64(shed))
	r.set("fleetd.shed_ratio", ratio(float64(shed), float64(admitted+shed)))
	r.set("fleetd.conflicts", float64(conflicts))
	r.set("fleetd.not_found", float64(notFound))
	r.setN("fleetd.create_us_p50", median(creates), len(creates))
	r.setN("scenario.create_us_p50", median(scenarioCreates), len(scenarioCreates))
	r.setN("telemetry.handler_us_p50", median(handler), len(handler))
	r.setN("telemetry.handler_us_p99", quantile(handler, 0.99), len(handler))
	r.setN("telemetry.transport_us_p50", median(transport), len(transport))
	r.setN("telemetry.scrape_us_p50", median(scrapes), len(scrapes))
	r.setN("telemetry.scrape_bytes", median(scrapeBytes), len(scrapeBytes))
	r.setN("harness.gen_lag_p50_ms", median(genLag), len(genLag))
	r.setN("harness.gen_lag_p99_ms", quantile(genLag, 0.99), len(genLag))
	r.set("harness.trace_overhead_frac", median(steps)/median(plainSteps)-1)
	r.setIdle("phy.", "coding.", "mac.", "netsim.")
	r.note("fleetd-serve: set-up %.3f s; untraced half %d requests, traced half %d requests; %d epochs traced",
		setup, len(plainOuts), len(outs), len(steps))
	setSelfTimes(r, tr, 1)
	return r, writeTrace(cfg, "fleetd-serve", tr, r)
}

// noteKinds notes each op kind's median and p90 latency from due time.
func noteKinds(r *result, outs []outcome) {
	var by [numOps][]float64
	for _, o := range outs {
		if o.err == nil {
			by[o.op.kind] = append(by[o.op.kind], ms(o.done.Sub(o.due)))
		}
	}
	for k, xs := range by {
		r.note("%-16s n=%5d p50 %.3f ms p90 %.3f ms", opNames[k], len(xs), median(xs), quantile(xs, 0.9))
	}
}
