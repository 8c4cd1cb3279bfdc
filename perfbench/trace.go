package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around a public API call. parent is the span that caused it (0
// for a root); n counts the calls a batch span folds together.
type span struct {
	id, parent int32
	name       string
	start, end time.Duration // since the tracer's origin
	n          int32
}

// tracer holds spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so the timed code path differs
// from the traced one only by a nil check per call. It is safe for
// concurrent use.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id (0 when untraced).
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, start: now, n: 1})
	t.mu.Unlock()
	return id
}

// end closes span id; n > 1 marks a batch of n calls.
func (t *tracer) end(id int32, n int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.spans[id-1].n = int32(n)
	t.mu.Unlock()
}

// record adds a finished span whose bounds were taken elsewhere.
func (t *tracer) record(name string, parent int32, start, end time.Time) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{id: id, parent: parent, name: name,
		start: start.Sub(t.t0), end: end.Sub(t.t0), n: 1})
	t.mu.Unlock()
	return id
}

// durations returns every span duration of one name, in microseconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, us(s.end-s.start))
		}
	}
	return out
}

// selfTimes sums each span name's self time: its duration minus the part
// of its interval that its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := map[int32][]span{}
	for _, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.name] += s.end - s.start - covered(s, children[s.id])
	}
	return out
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, p.start), min(k.end, p.end)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// setSelfTimes reports every span name's self time per repetition of
// the workload's fixed work (reps = 1 for a fixed-length pass), 0 for
// spans this workload does not record.
func setSelfTimes(r *result, t *tracer, reps float64) {
	self := t.selfTimes()
	for _, n := range spanNames {
		r.set(n+".self_s", self[n].Seconds()/reps)
	}
	var names []string
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.note("self time %-18s %10.6f s", n, self[n].Seconds()/reps)
	}
}

// write saves the spans as JSON lines under dir and returns the path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		ID      int32  `json:"id"`
		Parent  int32  `json:"parent"`
		Name    string `json:"name"`
		StartNS int64  `json:"start_ns"`
		DurNS   int64  `json:"dur_ns"`
		Calls   int32  `json:"calls"`
	}
	for _, s := range t.spans {
		if err := enc.Encode(line{s.id, s.parent, s.name, int64(s.start), int64(s.end - s.start), s.n}); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// writeTrace saves the traced pass's spans and notes where.
func writeTrace(cfg runConfig, workload string, t *tracer, r *result) error {
	path, err := t.write(cfg.traceDir, workload, cfg.seed)
	if err != nil {
		return fmt.Errorf("%s: writing spans: %w", workload, err)
	}
	r.note("%d spans written to %s", len(t.spans), path)
	return nil
}
