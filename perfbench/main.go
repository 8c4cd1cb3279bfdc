// Command perfbench is the repository benchmark: it drives three
// workloads through the simulator's public APIs, checks their outputs,
// and prints end-to-end metrics (untraced run) or per-layer metrics with
// span self times (traced run). The last line of standard output is the
// JSON result.
//
//	go run . --workload link-70m --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// workers is the parallelism every workload gets: FleetSim shards, the
// fleetd pool, PHY lane workers and HTTP client connections alike.
const workers = 2

type runConfig struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	traceDir string
}

var workloads = map[string]func(runConfig) (*result, error){
	"link-70m":     runLink,
	"fleet-day":    runFleetDay,
	"fleetd-serve": runServe,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 = traced run: print per-layer metrics and write spans")
	traceDir := fs.String("trace-dir", ".bench_out", "where the traced run writes its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	runtime.GOMAXPROCS(workers)
	cfg := runConfig{
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		traceDir: *traceDir,
	}
	r, err := w(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	fmt.Fprintf(stdout, "# perfbench %s seed=%d seconds=%g trace=%d go=%s GOMAXPROCS=%d\n",
		*name, *seed, *seconds, *trace, runtime.Version(), runtime.GOMAXPROCS(0))
	if err := report(stdout, *name, r, want); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
