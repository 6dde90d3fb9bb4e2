package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"repro/internal/obs"
)

// tracer records spans around the benchmark's calls into the program's
// layers. It keeps them in memory; the per-layer metrics are computed from
// them when the run ends. Spans nest through a stack, so they must be
// opened and closed on one goroutine, which is how the benchmark calls the
// program. A nil or disabled tracer records nothing and reads no clock.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	stack []int
}

type span struct {
	name, root string // root is the name of the depth-0 span it is under
	depth      int
	start, end time.Duration
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// span opens a span named after the layer call it wraps and returns the
// function that closes it.
func (t *tracer) span(name string) func() {
	if t == nil || !t.on {
		return func() {}
	}
	id := len(t.spans)
	root := name
	if len(t.stack) > 0 {
		root = t.spans[t.stack[0]].root
	}
	t.spans = append(t.spans, span{name: name, root: root, depth: len(t.stack), start: time.Since(t.t0)})
	t.stack = append(t.stack, id)
	return func() {
		t.spans[id].end = time.Since(t.t0)
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// durations returns the durations, in milliseconds, of every span with the
// given name under a root span named root, in the order they were opened.
func (t *tracer) durations(root, name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.root == root {
			out = append(out, ms(s.end-s.start))
		}
	}
	return out
}

// coverage returns the share of the root spans' time that their direct
// children cover: how much of the timed wall time is attributed to a layer
// call rather than to the benchmark's own code between calls.
func (t *tracer) coverage(root string) float64 {
	var rootTime, covered time.Duration
	for _, s := range t.spans {
		switch {
		case s.depth == 0 && s.name == root:
			rootTime += s.end - s.start
		case s.depth == 1 && s.root == root:
			covered += s.end - s.start
		}
	}
	if rootTime == 0 {
		return 0
	}
	return float64(covered) / float64(rootTime)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the p-th percentile (0..100) of xs by the
// nearest-rank method, or 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(rank, len(s)-1))]
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// runtimeStats is a reading of the Go runtime's own accounting, taken
// before and after a timed phase.
type runtimeStats struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
	allocObjects    uint64
}

// add returns s plus the difference between the readings after and before.
func (s runtimeStats) add(after, before runtimeStats) runtimeStats {
	s.gcCPU += after.gcCPU - before.gcCPU
	s.totalCPU += after.totalCPU - before.totalCPU
	s.allocBytes += after.allocBytes - before.allocBytes
	s.allocObjects += after.allocObjects - before.allocObjects
	return s
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
}

func readRuntime() runtimeStats {
	metrics.Read(runtimeSamples)
	return runtimeStats{
		gcCPU:        runtimeSamples[0].Value.Float64(),
		totalCPU:     runtimeSamples[1].Value.Float64(),
		allocBytes:   runtimeSamples[2].Value.Uint64(),
		allocObjects: runtimeSamples[3].Value.Uint64(),
	}
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// processCounters names the counters the program keeps in its process-wide
// obs registry that the per-layer report reads.
var processCounters = []string{
	"store.bytes_read", "store.bytes_written",
	"parallel.ordered.window_stalls", "parallel.merge.stalls",
	"parallel.pool.busy_nanos",
}

// engineCounters names the counters each query engine keeps in its own
// registry (one registry per evaluator, shared by the auditor built on it).
var engineCounters = []string{
	"query.plan.hits", "query.plan.misses", "query.plan.compile_nanos",
	"core.mask.hits", "core.mask.recomputes", "core.mask.extensions",
}

// counterValue reads a counter's value or a histogram's sum.
func counterValue(m obs.Metric) float64 {
	if m.Kind == obs.KindHistogram {
		return float64(m.Sum)
	}
	return float64(m.Value)
}

// addSnapshot adds the named metrics of snap into into.
func addSnapshot(into map[string]float64, snap map[string]obs.Metric, names []string) {
	for _, n := range names {
		into[n] += counterValue(snap[n])
	}
}
