package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// spec names one reported metric and its unit.
type spec struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every untraced run
// of every workload reports each of them (see README.md for what each
// one measures on each workload).
var endToEnd = []spec{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"read_p50_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"epoch_p50_ms", "ms"},
}

// spanNames are the spans the traced run records, outermost first per
// workload. Each contributes a "<name>.self_s" per-layer metric.
var spanNames = []string{
	"link.tick", "mac.build", "phy.exchange", "mac.accept",
	"fleet.epoch", "netsim.setfrac", "netsim.inject", "netsim.step",
	"client.request", "telemetry.handler", "fleetd.epoch", "fleetd.step",
}

// perLayer are the traced run's metrics: one layer's work, time, waste
// or waiting each. A layer the workload does not drive reports 0.
var perLayer = append([]spec{
	{"phy.exchange_us_p50", "us"},
	{"phy.exchange_us_p99", "us"},
	{"phy.exchange_busy_frac", "ratio"},
	{"phy.allocs_per_exchange", "count"},
	{"coding.corrections_per_sf", "count"},
	{"phy.units_lost", "count"},
	{"phy.frame_delivery_ratio", "ratio"},
	{"phy.wire_efficiency", "ratio"},
	{"phy.build_s", "s"},

	{"mac.build_us_p50", "us"},
	{"mac.accept_us_p50", "us"},
	{"mac.retransmits", "count"},
	{"mac.retx_ratio", "ratio"},
	{"mac.timeouts", "count"},
	{"mac.credit_stalls", "count"},
	{"mac.duplicates", "count"},
	{"mac.reordered", "count"},
	{"mac.delivered", "count"},
	{"mac.goodput_frac", "ratio"},

	{"netsim.inject_us_p50", "us"},
	{"netsim.inject_busy_s", "s"},
	{"netsim.path_us_p50", "us"},
	{"netsim.setfrac_busy_s", "s"},
	{"netsim.step_ms_p50", "ms"},
	{"netsim.step_ms_max", "ms"},
	{"netsim.step_busy_s", "s"},
	{"netsim.waterfills", "count"},
	{"netsim.rated_flows", "count"},
	{"netsim.rated_per_done", "ratio"},
	{"netsim.peak_active", "count"},
	{"netsim.peak_cross", "count"},
	{"netsim.unroutable", "count"},
	{"netsim.allocs_per_flow", "count"},
	{"netsim.bytes_per_flow", "B"},

	{"fleetd.step_busy_frac", "ratio"},
	{"fleetd.blocked_by_step_frac", "ratio"},
	{"fleetd.pool_tasks", "count"},
	{"fleetd.pool_steals", "count"},
	{"fleetd.steal_ratio", "ratio"},
	{"fleetd.admitted", "count"},
	{"fleetd.shed", "count"},
	{"fleetd.shed_ratio", "ratio"},
	{"fleetd.conflicts", "count"},
	{"fleetd.not_found", "count"},
	{"fleetd.create_us_p50", "us"},
	{"scenario.create_us_p50", "us"},

	{"telemetry.handler_us_p50", "us"},
	{"telemetry.handler_us_p99", "us"},
	{"telemetry.transport_us_p50", "us"},
	{"telemetry.scrape_us_p50", "us"},
	{"telemetry.scrape_bytes", "B"},

	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "ratio"},

	{"harness.gen_lag_p50_ms", "ms"},
	{"harness.gen_lag_p99_ms", "ms"},
	{"harness.trace_overhead_frac", "ratio"},
}, selfTimeSpecs()...)

func selfTimeSpecs() []spec {
	out := make([]spec, len(spanNames))
	for i, n := range spanNames {
		out[i] = spec{n + ".self_s", "s"}
	}
	return out
}

// result is one run's outcome. metrics holds the measured values by
// name; samples holds the sample count behind a percentile or median,
// printed beside it in the human-readable report.
type result struct {
	attempted, failed int64
	metrics           map[string]float64
	samples           map[string]int
	asides            []aside
	notes             []string
}

// aside is a figure printed beside the metrics but kept out of the JSON
// result, because BENCHMARK.json gives it no bound.
type aside struct {
	spec
	value float64
	n     int
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, samples: map[string]int{}}
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

// setN records a value computed from n samples.
func (r *result) setN(name string, v float64, n int) {
	r.metrics[name] = v
	r.samples[name] = n
}

// fail records n failed operations and why.
func (r *result) fail(n int64, format string, args ...any) {
	if n <= 0 {
		n = 1
	}
	r.failed += n
	r.notes = append(r.notes, "FAILED: "+fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setIdle reports 0 for every per-layer metric under the given name
// prefixes that the workload did not set: layers it does not drive.
func (r *result) setIdle(prefixes ...string) {
	for _, s := range perLayer {
		if _, ok := r.metrics[s.name]; ok {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(s.name, p) {
				r.set(s.name, 0)
				break
			}
		}
	}
}

func (r *result) failedFrac() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints the human-readable lines and then, as the last line, the
// JSON result holding exactly the metrics in want. A metric the run did
// not produce, an extra one, or a value that is not finite is an error:
// the report is the contract with whoever compares runs.
func report(w io.Writer, workload string, r *result, want []spec) error {
	out := jsonResult{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, s := range want {
		v, ok := r.metrics[s.name]
		if !ok {
			return fmt.Errorf("workload %s did not produce metric %s", workload, s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("workload %s: metric %s is %v", workload, s.name, v)
		}
		out.Metrics[s.name] = jsonMetric{Value: v, Unit: s.unit}
	}
	if len(r.metrics) != len(want) {
		known := map[string]bool{}
		for _, s := range want {
			known[s.name] = true
		}
		var extra []string
		for n := range r.metrics {
			if !known[n] {
				extra = append(extra, n)
			}
		}
		sort.Strings(extra)
		return fmt.Errorf("workload %s produced unlisted metrics %v", workload, extra)
	}
	if out.Attempted < 1 {
		return fmt.Errorf("workload %s attempted no operations", workload)
	}
	out.Correct = r.failed == 0

	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintf(w, "%-34s %14s  %s\n", "metric", "value", "unit")
	for _, s := range want {
		line := fmt.Sprintf("%-34s %14.6g  %s", s.name, r.metrics[s.name], s.unit)
		if n, ok := r.samples[s.name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(w, line)
	}
	for _, a := range r.asides {
		fmt.Fprintf(w, "%-34s %14.6g  %s  (n=%d, not gated)\n", a.name, a.value, a.unit, a.n)
	}
	fmt.Fprintf(w, "%-34s %14.6g  %s  (%d/%d)\n", "failed_frac", r.failedFrac(), "ratio", r.failed, r.attempted)
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// setLatencies reports the medians of the workload's read-path,
// write-path and epoch latencies, in ms, and prints their 99th
// percentiles beside them, ungated: on a shared two-vCPU host they move
// with the CPU time the hypervisor steals (see README.md), far more than
// a bound could allow.
func setLatencies(r *result, reads, writes, epochs []float64) {
	r.setN("read_p50_ms", median(reads), len(reads))
	r.setN("write_p50_ms", median(writes), len(writes))
	r.setN("epoch_p50_ms", median(epochs), len(epochs))
	for _, t := range []struct {
		name string
		xs   []float64
	}{{"read_p99_ms", reads}, {"write_p99_ms", writes}, {"epoch_p99_ms", epochs}} {
		r.asides = append(r.asides, aside{spec{t.name, "ms"}, quantile(t.xs, 0.99), len(t.xs)})
	}
}
