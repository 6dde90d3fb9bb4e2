// Command perfbench is the repository's benchmark. It runs one of three
// workloads, each the flow of one of the paper's users, checks that the
// program's outputs are correct, and prints the metrics as one JSON object
// on the last line of standard output:
//
//	bash perfbench/run.sh --workload stream-audit --seed 1 --seconds 40 --trace 0
//
// Workloads (Small hospital, full hand-crafted catalog of 20 templates):
//
//   - stream-audit: the compliance officer. Repeated cold and warm starts of
//     a segment store to the first report, one full single-engine NDJSON
//     stream and one full K=4 federated stream.
//   - mine: the administrator. One round mines the training window's first
//     accesses with the five algorithms of the paper's Figure 13, each on a
//     fresh evaluator over freshly loaded tables.
//   - portal-ingest: the patient beside a live log. Replays day-7 rows as
//     ingest batches (append, durable store append, incremental refresh,
//     explain and encode) with a closed-loop portal client between batches.
//
// With --trace 0 the run is untraced and prints the end-to-end metrics;
// with --trace 1 it prints the per-layer metrics, measured by spans the
// benchmark records around its own calls into the program and by the
// counters the program keeps in its obs registries. See README.md for the
// metric definitions.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/ehr"
	"repro/internal/obs"
)

// A run performs its workload's set-up at least setupReps times and until
// the set-ups have taken setupSeconds, so a set-up of a few tens of
// milliseconds is repeated often enough for a steady median; setup_s is
// their median.
const (
	setupReps    = 5
	setupSeconds = 1.0
)

// workload is one user flow. setup prepares the state the rounds use and is
// timed as setup_s; round performs one fixed unit of work, so rounds are
// comparable within and across runs and the work counters of one round
// repeat exactly at a given seed.
type workload interface {
	setup(r *run) error
	round(r *run) error
	// endToEnd returns the workload's values of latency_p50_ms and
	// rows_per_s from the run's samples.
	endToEnd(r *run) (latencyMS, rowsPerS float64)
}

var workloads = map[string]func() workload{
	"stream-audit":  func() workload { return &streamAudit{} },
	"mine":          func() workload { return &mineBench{} },
	"portal-ingest": func() workload { return &portalIngest{} },
}

// run is one benchmark run: its configuration, the tracer, and everything
// measured so far.
type run struct {
	ctx     context.Context
	cfg     ehr.Config
	seed    int64
	workers int    // GOMAXPROCS, unless the workload asks for fewer
	dir     string // scratch directory for stores, removed when the run ends
	tr      *tracer
	// traceRun marks a traced run, whose untraced baseline rounds keep no
	// samples or counters.
	traceRun bool

	attempted, failed int
	failures          []string

	// samples pools named measurements over the rounds.
	samples map[string][]float64
	// counters holds the current round's work counters; rounds keeps one
	// finished map per round.
	counters map[string]float64
	rounds   []map[string]float64

	setupTimes   []float64 // seconds, one per set-up
	untracedTime []float64 // seconds, untraced rounds of a traced run
	tracedTime   []float64 // seconds, traced rounds of a traced run
	rtTraced     runtimeStats
	peakRSS      float64
}

func newRun(cfg ehr.Config, seed int64, dir string, traced bool) *run {
	return &run{
		ctx:      context.Background(),
		cfg:      cfg,
		seed:     seed,
		workers:  runtime.GOMAXPROCS(0),
		dir:      dir,
		tr:       newTracer(traced),
		traceRun: traced,
		samples:  map[string][]float64{},
	}
}

// sample records one measurement under name.
func (r *run) sample(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// count adds v to the current round's counter name.
func (r *run) count(name string, v float64) { r.counters[name] += v }

// op records one attempted operation and its outcome.
func (r *run) op(what string, err error) {
	r.attempted++
	if err != nil {
		r.fail(fmt.Sprintf("%s: %v", what, err))
	}
}

// fail records a failed operation or output check.
func (r *run) fail(msg string) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, msg)
	}
}

// check records a failed output check when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.fail("check failed: " + fmt.Sprintf(format, args...))
	}
}

// setup performs the workload's set-up repeatedly; the state of the last
// one is what the rounds use.
func (r *run) setup(w workload) error {
	for len(r.setupTimes) < setupReps || sum(r.setupTimes) < setupSeconds {
		runtime.GC()
		end := r.tr.span("setup")
		t0 := time.Now()
		err := w.setup(r)
		r.setupTimes = append(r.setupTimes, time.Since(t0).Seconds())
		end()
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
	}
	return nil
}

// doRound runs one round with tracing on or off and returns its wall time.
func (r *run) doRound(w workload, traced bool) (time.Duration, error) {
	r.tr.on = traced
	obs.SetEnabled(traced)
	defer obs.SetEnabled(false)
	keep := traced || !r.traceRun
	kept := r.samples
	if !keep {
		r.samples = map[string][]float64{}
	}
	r.counters = map[string]float64{}
	before := obs.Default.Snapshot()
	rt0 := readRuntime()
	end := r.tr.span("round")
	t0 := time.Now()
	err := w.round(r)
	d := time.Since(t0)
	end()
	rt1 := readRuntime()
	after := obs.Default.Snapshot()
	for _, n := range processCounters {
		r.counters[n] += counterValue(after[n]) - counterValue(before[n])
	}
	if traced {
		r.rtTraced = r.rtTraced.add(rt1, rt0)
	}
	if keep {
		r.rounds = append(r.rounds, r.counters)
	} else {
		r.samples = kept
	}
	return d, err
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd returns the untraced metrics every workload reports.
func (r *run) endToEnd(w workload) map[string]metric {
	lat, rate := w.endToEnd(r)
	return map[string]metric{
		"setup_s":        {median(r.setupTimes), "s"},
		"latency_p50_ms": {lat, "ms"},
		"rows_per_s":     {rate, "rows/s"},
		"peak_rss_mb":    {r.peakRSS, "MB"},
	}
}

// newWorkloadRun creates the workload and a run with its own scratch
// directory under workdir; the returned function removes the directory.
func newWorkloadRun(name string, cfg ehr.Config, seed int64, traced bool, workdir string) (workload, *run, func(), error) {
	mk, ok := workloads[name]
	if !ok {
		return nil, nil, nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, nil, nil, err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, nil, nil, err
	}
	w, r := mk(), newRun(cfg, seed, dir, traced)
	if p, ok := w.(interface{ workers(nproc int) int }); ok {
		r.workers = p.workers(r.workers)
	}
	return w, r, func() { os.RemoveAll(dir) }, nil
}

// untracedRun measures the end-to-end metrics: set-ups, then rounds until
// the next would end after budget, at least one.
func untracedRun(name string, cfg ehr.Config, seed int64, budget time.Duration, workdir string) (*run, result, error) {
	w, r, cleanup, err := newWorkloadRun(name, cfg, seed, false, workdir)
	if err != nil {
		return nil, result{}, err
	}
	defer cleanup()
	if err := r.setup(w); err != nil {
		return nil, result{}, err
	}
	start := time.Now()
	var last time.Duration
	for len(r.rounds) == 0 || time.Since(start)+last <= budget {
		if last, err = r.doRound(w, false); err != nil {
			return nil, result{}, err
		}
	}
	r.peakRSS = peakRSSMB()
	return r, result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.endToEnd(w)}, nil
}

// tracedRun measures the per-layer metrics: the set-ups, then pairs of an untraced round (the baseline of trace.overhead_frac) and
// a traced round until the next pair would end after budget, at least one
// pair, then the workload's traced-only pass.
func tracedRun(name string, cfg ehr.Config, seed int64, budget time.Duration, workdir string) (*run, result, error) {
	w, r, cleanup, err := newWorkloadRun(name, cfg, seed, true, workdir)
	if err != nil {
		return nil, result{}, err
	}
	defer cleanup()
	if err := r.setup(w); err != nil {
		return nil, result{}, err
	}
	start := time.Now()
	var last time.Duration
	for len(r.tracedTime) == 0 || time.Since(start)+last <= budget {
		t0 := time.Now()
		for _, traced := range []bool{false, true} {
			d, err := r.doRound(w, traced)
			if err != nil {
				return nil, result{}, err
			}
			if traced {
				r.tracedTime = append(r.tracedTime, d.Seconds())
			} else {
				r.untracedTime = append(r.untracedTime, d.Seconds())
			}
		}
		last = time.Since(t0)
	}
	if p, ok := w.(interface{ tracedPass(*run) error }); ok {
		if err := p.tracedPass(r); err != nil {
			return nil, result{}, err
		}
	}
	r.peakRSS = peakRSSMB()
	return r, result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.perLayer()}, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// seedConfig returns the Small hospital generated from seed.
func seedConfig(seed int64) ehr.Config {
	cfg := ehr.Small()
	cfg.Seed = seed
	return cfg
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

var errChecksFailed = errors.New("output checks failed")

func mainErr(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; 1 is pinned, 2 is held out for validating claims")
	seconds := fs.Int("seconds", 40, "measured time per run, in seconds")
	trace := fs.Int("trace", 0, "0: untraced, print end-to-end metrics; 1: traced, print per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for the run's stores")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	budget := time.Duration(*seconds) * time.Second
	var r *run
	var res result
	var err error
	if *trace == 1 {
		r, res, err = tracedRun(*name, seedConfig(*seed), *seed, budget, *workdir)
	} else {
		r, res, err = untracedRun(*name, seedConfig(*seed), *seed, budget, *workdir)
	}
	if err != nil {
		return err
	}
	r.summary(stderr, *name)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return errChecksFailed
	}
	return nil
}
