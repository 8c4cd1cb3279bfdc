package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"mosaic/internal/fleetd"
	"mosaic/internal/telemetry"
)

func TestGeneratorsArePureFunctionsOfTheSeed(t *testing.T) {
	if a, b := genLinkInputs(7), genLinkInputs(7); !reflect.DeepEqual(a, b) {
		t.Error("link-70m inputs differ for one seed")
	}
	if a, b := genLinkInputs(7), genLinkInputs(8); reflect.DeepEqual(a, b) {
		t.Error("link-70m inputs equal for different seeds")
	}

	a, b, c := genDayInputs(7), genDayInputs(7), genDayInputs(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("fleet-day flows differ for one seed")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("fleet-day flows equal for different seeds")
	}
	if a.flows() < 600000 {
		t.Errorf("fleet-day draws %d flows, want the E24 scale (~690K)", a.flows())
	}

	s1, err := genSchedule(7, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := genSchedule(7, 20*time.Second)
	s3, _ := genSchedule(8, 20*time.Second)
	if !reflect.DeepEqual(s1, s2) {
		t.Error("fleetd-serve schedule differs for one seed")
	}
	if reflect.DeepEqual(s1, s3) {
		t.Error("fleetd-serve schedule equal for different seeds")
	}
	if n := len(s1); n < 19*serveRate || n > 21*serveRate {
		t.Errorf("schedule has %d ops for 20 s at %d/s", n, serveRate)
	}
}

// The schedule only issues ops that are legal when they run.
func TestScheduleTargetsAreLegal(t *testing.T) {
	ops, err := genSchedule(3, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	retired := map[int]bool{}
	degradedAt := map[int]time.Duration{}
	var reads, writes int
	for _, op := range ops {
		if op.kind.read() {
			reads++
		} else {
			writes++
		}
		namesLink := op.kind == opInspect || op.kind == opDegrade || op.kind == opRenegotiate || op.kind == opRetire
		if namesLink && retired[op.link] {
			t.Fatalf("op %s names link %d after its retire", opNames[op.kind], op.link)
		}
		switch op.kind {
		case opRetire:
			retired[op.link] = true
		case opDegrade:
			if _, ok := degradedAt[op.link]; ok {
				t.Fatalf("link %d degraded twice", op.link)
			}
			degradedAt[op.link] = op.due
		case opRenegotiate:
			at, ok := degradedAt[op.link]
			if !ok || op.due-at < serveRenegDelay {
				t.Fatalf("renegotiate of link %d at %v, degraded at %v (%v)", op.link, op.due, at, ok)
			}
		}
	}
	if reads == 0 || writes == 0 {
		t.Fatalf("schedule has %d reads and %d writes", reads, writes)
	}
	if _, err := genSchedule(3, 10*time.Minute); err == nil {
		t.Error("a schedule longer than the link pool supports was accepted")
	}
}

// metricName is the name rule of BENCHMARK.json.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, set := range [][]spec{endToEnd, perLayer} {
		for _, s := range set {
			if !metricName.MatchString(s.name) {
				t.Errorf("metric name %q does not match %v", s.name, metricName)
			}
			if seen[s.name] {
				t.Errorf("metric %q listed twice", s.name)
			}
			seen[s.name] = true
			if s.unit == "" || len(s.unit) > 16 {
				t.Errorf("metric %q has unit %q", s.name, s.unit)
			}
		}
	}
}

// BENCHMARK.json at the repository root lists exactly the metrics the
// program reports, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []spec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, program has %d", len(b.Workloads), len(workloads))
	}
}

func fullResult(want []spec) *result {
	r := newResult()
	r.attempted = 10
	for _, s := range want {
		r.set(s.name, 1)
	}
	return r
}

func lastJSON(t *testing.T, out string) jsonResult {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out)
	}
	return res
}

func TestReportRejectsIncompleteResults(t *testing.T) {
	var buf bytes.Buffer
	r := fullResult(endToEnd)
	delete(r.metrics, "run_s")
	if err := report(&buf, "x", r, endToEnd); err == nil {
		t.Error("a missing metric was reported")
	}
	r = fullResult(endToEnd)
	r.set("bogus", 1)
	if err := report(&buf, "x", r, endToEnd); err == nil {
		t.Error("an unlisted metric was reported")
	}
	r = fullResult(endToEnd)
	r.set("run_s", math.NaN())
	if err := report(&buf, "x", r, endToEnd); err == nil {
		t.Error("a NaN metric was reported")
	}
	r = fullResult(endToEnd)
	r.attempted = 0
	if err := report(&buf, "x", r, endToEnd); err == nil {
		t.Error("a run with no attempted operations was reported")
	}
	if buf.Len() != 0 {
		t.Errorf("rejected results printed output:\n%s", buf.String())
	}
}

// The ungated p99s print beside the metrics but stay out of the JSON,
// which holds exactly the metrics BENCHMARK.json lists.
func TestTailsStayOutOfTheJSON(t *testing.T) {
	r := fullResult(endToEnd)
	setLatencies(r, []float64{1, 2, 30}, []float64{4}, []float64{5})
	var buf bytes.Buffer
	if err := report(&buf, "x", r, endToEnd); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "read_p99_ms") {
		t.Errorf("no read_p99_ms line in\n%s", buf.String())
	}
	if res := lastJSON(t, buf.String()); len(res.Metrics) != len(endToEnd) {
		t.Errorf("JSON holds %d metrics, want %d", len(res.Metrics), len(endToEnd))
	}
}

// Every workload's output check feeds failed_frac.
func TestFailedCheckMakesFailedFracPositive(t *testing.T) {
	t.Run("link-70m", func(t *testing.T) {
		in := genLinkInputs(1)
		s := newLinkSide(0, nil)
		good := in.packet(make([]byte, linkPacketLen), 0, 1, 0)
		s.deliver(&in, 1, good)
		bad := in.packet(make([]byte, linkPacketLen), 0, 1, 1)
		bad[len(bad)-1] ^= 1
		s.deliver(&in, 1, bad)
		if s.okRx != 1 || s.bad != 1 {
			t.Fatalf("ok %d bad %d, want 1 and 1", s.okRx, s.bad)
		}
		skipped := in.packet(make([]byte, linkPacketLen), 0, 1, 3) // seq 2 never arrived
		s.deliver(&in, 1, skipped)
		if s.bad != 2 {
			t.Fatalf("an out-of-order packet passed the check")
		}
	})
	t.Run("fleet-day", func(t *testing.T) {
		r := newResult()
		rep := dayRep{counts: dayCounts{arrivals: 100, completed: 60, active: 30, unroutable: 5}}
		checkDay(r, "day", rep, rep.counts)
		if r.failedFrac() <= 0 {
			t.Fatal("5 vanished flows did not count as failed")
		}
		r = newResult()
		rep.counts.unroutable = 10
		ref := rep.counts
		ref.digest = "other"
		checkDay(r, "day", rep, ref)
		if r.failedFrac() <= 0 {
			t.Fatal("a day whose counts differ from the first day's did not fail")
		}
	})
	t.Run("fleetd-serve", func(t *testing.T) {
		cases := []struct {
			op     serveOp
			status int
			body   string
		}{
			{serveOp{kind: opInspect, link: 4}, 200, `{"id":5,"state":"serving"}`},
			{serveOp{kind: opInspect, link: 4}, 200, `{"id":4,"state":"bogus"}`},
			{serveOp{kind: opInspect, link: 4}, 404, `{"error":"fleetd: unknown link"}`},
			{serveOp{kind: opCreate}, 429, `{"ids":null,"shed":"rate"}`},
			{serveOp{kind: opRetire, link: 3}, 200, `{"link":3,"state":"retired"}`},
			{serveOp{kind: opList}, 200, `[{"id":2},{"id":1}]`},
			{serveOp{kind: opFleet}, 200, `{"states":{"serving":3},"live_links":4}`},
			{serveOp{kind: opMetrics}, 200, "# nothing\n"},
			{serveOp{kind: opFleet}, 200, `not json`},
		}
		for _, c := range cases {
			if err := checkReply(c.op, c.status, []byte(c.body)); err == nil {
				t.Errorf("%s reply %d %s passed the check", opNames[c.op.kind], c.status, c.body)
			}
		}
		ok := []struct {
			op   serveOp
			body string
		}{
			{serveOp{kind: opInspect, link: 4}, `{"id":4,"state":"serving"}`},
			{serveOp{kind: opRetire, link: 3}, `{"link":3,"state":"draining"}`},
			{serveOp{kind: opDegrade, link: 3}, `{"link":3,"killed":3}`},
		}
		for _, c := range ok {
			if err := checkReply(c.op, http.StatusOK, []byte(c.body)); err != nil {
				t.Errorf("valid %s reply failed the check: %v", opNames[c.op.kind], err)
			}
		}
		r := newResult()
		now := time.Now()
		tally(r, []outcome{
			{op: serveOp{kind: opInspect}, due: now, sent: now, done: now, status: 200},
			{op: serveOp{kind: opRenegotiate}, due: now, sent: now, done: now, status: 409,
				err: checkReply(serveOp{kind: opRenegotiate}, 409, []byte(`{"error":"x"}`))},
		})
		if r.failed != 1 || r.attempted != 2 {
			t.Fatalf("failed %d of %d, want 1 of 2", r.failed, r.attempted)
		}
	})
	t.Run("report", func(t *testing.T) {
		r := fullResult(endToEnd)
		r.fail(3, "three bad packets")
		var buf bytes.Buffer
		if err := report(&buf, "x", r, endToEnd); err != nil {
			t.Fatal(err)
		}
		res := lastJSON(t, buf.String())
		if res.Correct || res.Failed != 3 {
			t.Fatalf("correct=%v failed=%d, want false and 3", res.Correct, res.Failed)
		}
	})
}

func TestQuantileAndCoverage(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median %v, want 3", q)
	}
	if q := quantile(xs, 0.99); q != 5 {
		t.Errorf("p99 %v, want 5", q)
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	ys := []float64{100, 1, 2, 3, 4, 5, 6, -50}
	if m := midMean(ys); m != 3.5 {
		t.Errorf("midMean %v, want 3.5 (mean of 2..5)", m)
	}
	if ys[0] != 100 {
		t.Error("midMean reordered its input")
	}
	if m := midMean([]float64{7}); m != 7 {
		t.Errorf("midMean of one sample %v, want 7", m)
	}
	p := span{start: 0, end: 100}
	kids := []span{{start: 10, end: 30}, {start: 20, end: 40}, {start: 90, end: 120}}
	if c := covered(p, kids); c != 40 {
		t.Errorf("covered %v, want 40 (10-40 and 90-100)", c)
	}
}

// runWorkload runs the program end to end on a short budget and returns
// its JSON result.
func runWorkload(t *testing.T, args ...string) jsonResult {
	t.Helper()
	var out, errOut bytes.Buffer
	args = append(args, "--trace-dir", t.TempDir())
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	return lastJSON(t, out.String())
}

func TestLinkWorkloadEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 70 m links")
	}
	res := runWorkload(t, "--workload", "link-70m", "--seed", "2", "--seconds", "0.1", "--trace", "0")
	if !res.Correct || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("untraced run: correct=%v with %d metrics", res.Correct, len(res.Metrics))
	}
	res = runWorkload(t, "--workload", "link-70m", "--seed", "2", "--seconds", "0.1", "--trace", "1")
	if !res.Correct || len(res.Metrics) != len(perLayer) {
		t.Fatalf("traced run: correct=%v with %d metrics", res.Correct, len(res.Metrics))
	}
	if res.Metrics["coding.corrections_per_sf"].Value <= 0 || res.Metrics["mac.retransmits"].Value <= 0 {
		t.Error("link-70m ran without RS corrections or retransmits")
	}
	if res.Metrics["netsim.step_busy_s"].Value != 0 {
		t.Error("link-70m reports netsim work")
	}
}

func TestServeWorkloadEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("admits 2,000 links")
	}
	res := runWorkload(t, "--workload", "fleetd-serve", "--seed", "2", "--seconds", "2", "--trace", "1")
	if !res.Correct {
		t.Fatalf("traced run failed %d of %d requests", res.Failed, res.Attempted)
	}
	if res.Metrics["telemetry.handler_us_p50"].Value <= 0 || res.Metrics["fleetd.step.self_s"].Value <= 0 {
		t.Error("traced run recorded no handler or step spans")
	}
}

// Ending a traced pass stops the epoch ticker's span recording, so the
// pass's spans can be read while the fleet keeps stepping.
func TestTickerStopsTracingWithThePass(t *testing.T) {
	cfg := fleetd.DefaultConfig()
	cfg.Budgets.MaxLinks = 32
	f, err := fleetd.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rig, err := startRig(f, telemetry.NewRegistry(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.close()
	for i := 0; i < 3; i++ {
		tr := newTracer()
		rig.setTracer(tr)
		time.Sleep(3 * serveEpoch)
		rig.setTracer(nil)
		n := len(tr.spans)
		if n == 0 {
			t.Fatal("no epoch spans recorded while tracing")
		}
		time.Sleep(2 * serveEpoch)
		if len(tr.spans) != n {
			t.Fatalf("ticker recorded %d spans after the pass ended", len(tr.spans)-n)
		}
	}
}

func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "link-70m", "--trace", "2"},
		{"--workload", "link-70m", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d with output %q", args, code, out.String())
		}
	}
}
