package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// layerMetric is one per-layer metric of the traced run. Metrics a workload
// does not exercise read 0: the layer did no such work.
type layerMetric struct {
	name, unit string
	value      func(r *run) float64
}

// inRounds and inSetup select the spans of the measured rounds and of the
// set-ups.
const (
	inRounds = "round"
	inSetup  = "setup"
)

func spanMedian(root, name string) func(*run) float64 {
	return func(r *run) float64 { return median(r.tr.durations(root, name)) }
}

func spanPercentile(name string, p float64) func(*run) float64 {
	return func(r *run) float64 { return percentile(r.tr.durations(inRounds, name), p) }
}

// counter reads a work counter of the last traced round.
func counter(name string) func(*run) float64 {
	return func(r *run) float64 {
		if len(r.rounds) == 0 {
			return 0
		}
		return r.rounds[len(r.rounds)-1][name]
	}
}

func sampleMedian(name string) func(*run) float64 {
	return func(r *run) float64 { return median(r.samples[name]) }
}

func samplePercentile(name string, p float64) func(*run) float64 {
	return func(r *run) float64 { return percentile(r.samples[name], p) }
}

// perTracedRound divides a runtime total over the traced rounds.
func perTracedRound(f func(rs runtimeStats) float64) func(*run) float64 {
	return func(r *run) float64 {
		if len(r.tracedTime) == 0 {
			return 0
		}
		return f(r.rtTraced) / float64(len(r.tracedTime))
	}
}

// deterministicCounters are the work counters that repeat exactly across
// runs at one seed: a change that moves them changed the work done.
var deterministicCounters = []string{
	"core.reports", "core.explained", "core.unexplained", "explain.explanations",
	"core.mask.hits", "core.mask.recomputes", "core.mask.extensions",
	"query.plan.hits", "query.plan.misses", "query.support_paths",
	"mine.candidates", "mine.support_queries", "mine.cache_hits", "mine.skipped", "mine.templates",
	"store.bytes_read", "store.bytes_written",
}

var layerMetrics = func() []layerMetric {
	ms := "ms"
	count := "count"
	m := []layerMetric{
		{"ehr.generate_ms", ms, spanMedian(inSetup, "ehr.generate")},
		{"groups.train_ms", ms, spanMedian(inSetup, "groups.train")},
		{"store.create_ms", ms, spanMedian(inSetup, "store.create")},
		{"store.open_ms", ms, spanMedian(inRounds, "store.open")},
		{"store.load_warm_ms", ms, spanMedian(inRounds, "store.load_warm")},
		{"store.append_ms", ms, spanMedian(inRounds, "store.append")},
		{"store.bytes_read", "bytes", counter("store.bytes_read")},
		{"store.bytes_written", "bytes", counter("store.bytes_written")},
		{"core.install_warm_ms", ms, spanMedian(inRounds, "core.install_warm")},
		{"core.first_report_ms", ms, spanMedian(inRounds, "core.first_report")},
		{"core.stream_wait_ms", ms, sampleMedian("core.stream_wait_ms")},
		{"core.sink_ms", ms, sampleMedian("core.sink_ms")},
		{"core.refresh_p50_ms", ms, spanPercentile("core.refresh", 50)},
		{"core.refresh_p90_ms", ms, spanPercentile("core.refresh", 90)},
		{"core.explain_row_ms", ms, func(r *run) float64 {
			return median(r.tr.durations(inRounds, "core.explain_row")) / ingestBatch
		}},
		{"core.patient_report_ms", ms, spanMedian(inRounds, "core.patient_report")},
		{"explain.render_ms", ms, sampleMedian("explain.render_ms")},
		{"explain.render_group_share", "fraction", sampleMedian("explain.render_group_share")},
		{"explain.renders", count, sampleMedian("explain.renders")},
		{"parallel.ordered.window_stalls", count, counter("parallel.ordered.window_stalls")},
		{"parallel.pool.busy_nanos.sum", "ns", counter("parallel.pool.busy_nanos")},
		{"parallel.merge.stalls", count, counter("parallel.merge.stalls")},
		{"federate.split_ms", ms, spanMedian(inRounds, "federate.split")},
		{"federate.stream_s", "s", func(r *run) float64 {
			return median(r.tr.durations(inRounds, "federate.stream")) / 1000
		}},
		{"federate.overhead_ratio", "ratio", sampleMedian("federate.overhead_ratio")},
		{"query.eval_supports_s", "s", counter("query.eval_supports_s")},
		{"query.estimate_s", "s", counter("query.estimate_s")},
		{"query.plan.compile_nanos.sum", "ns", counter("query.plan.compile_nanos")},
	}
	for _, algo := range mineAlgorithms {
		m = append(m, layerMetric{"mine." + algo + "_s", "s", func(r *run) float64 {
			return median(r.tr.durations(inRounds, "mine."+algo)) / 1000
		}})
	}
	m = append(m,
		layerMetric{"mine.self_s", "s", counter("mine.self_s")},
		layerMetric{"mine.useful_ratio", "ratio", func(r *run) float64 {
			if q := counter("mine.support_queries")(r); q > 0 {
				return counter("mine.templates")(r) / q
			}
			return 0
		}},
		layerMetric{"relation.index_rebuild_ms", ms, spanMedian(inRounds, "relation.index_rebuild")},
		layerMetric{"go.gc_cpu_frac", "fraction", func(r *run) float64 {
			if r.rtTraced.totalCPU == 0 {
				return 0
			}
			return r.rtTraced.gcCPU / r.rtTraced.totalCPU
		}},
		layerMetric{"go.alloc_mb", "MB", perTracedRound(func(rs runtimeStats) float64 { return float64(rs.allocBytes) / (1 << 20) })},
		layerMetric{"go.allocs", count, perTracedRound(func(rs runtimeStats) float64 { return float64(rs.allocObjects) })},
		layerMetric{"trace.overhead_frac", "fraction", func(r *run) float64 {
			if len(r.untracedTime) == 0 || len(r.tracedTime) == 0 {
				return 0
			}
			return median(r.tracedTime)/median(r.untracedTime) - 1
		}},
		layerMetric{"trace.coverage", "fraction", func(r *run) float64 { return r.tr.coverage(inRounds) }},
		// Each workload's user-facing measures under their own names, taken
		// from the traced rounds.
		layerMetric{"ttfr_cold_ms", ms, sampleMedian("ttfr_cold_ms")},
		layerMetric{"ttfr_warm_ms", ms, sampleMedian("ttfr_warm_ms")},
		layerMetric{"audit_rows_per_s", "rows/s", sampleMedian("audit_rows_per_s")},
		layerMetric{"fed_rows_per_s", "rows/s", sampleMedian("fed_rows_per_s")},
		layerMetric{"mine_s", "s", sampleMedian("mine_s")},
		layerMetric{"portal_p50_ms", ms, samplePercentile("portal_ms", 50)},
		layerMetric{"portal_p99_ms", ms, samplePercentile("portal_ms", 99)},
		layerMetric{"ingest_p50_ms", ms, samplePercentile("ingest_ms", 50)},
		layerMetric{"ingest_p90_ms", ms, samplePercentile("ingest_ms", 90)},
		layerMetric{"error_rate", "fraction", func(r *run) float64 {
			return float64(r.failed) / float64(max(r.attempted, 1))
		}},
	)
	for _, n := range deterministicCounters {
		if !strings.HasPrefix(n, "store.bytes") { // listed above, in bytes
			m = append(m, layerMetric{n, count, counter(n)})
		}
	}
	return m
}()

// perLayer returns every per-layer metric of a traced run.
func (r *run) perLayer() map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		out[lm.name] = metric{lm.value(r), lm.unit}
	}
	return out
}

// summary prints the run in human-readable form on w: every pooled sample
// series with its count and the percentiles that have at least ten samples
// beyond them, the last round's work counters, and any failures.
func (r *run) summary(w io.Writer, workload string) {
	fmt.Fprintf(w, "perfbench %s: seed %d, %d workers, %d set-ups (median %.3fs), %d rounds (%d traced)\n",
		workload, r.seed, r.workers, len(r.setupTimes), median(r.setupTimes), len(r.rounds), len(r.tracedTime))
	names := make([]string, 0, len(r.samples))
	for n := range r.samples {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		xs := r.samples[n]
		line := fmt.Sprintf("  %-28s n=%-5d p50=%.4g", n, len(xs), median(xs))
		for _, p := range []float64{90, 99, 99.9} {
			if float64(len(xs))*(100-p)/100 >= 10 {
				line += fmt.Sprintf(" p%g=%.4g", p, percentile(xs, p))
			}
		}
		fmt.Fprintln(w, line)
	}
	if len(r.rounds) > 0 {
		last := r.rounds[len(r.rounds)-1]
		var parts []string
		for _, n := range deterministicCounters {
			if v, ok := last[n]; ok {
				parts = append(parts, fmt.Sprintf("%s=%.0f", n, v))
			}
		}
		fmt.Fprintf(w, "  work per round: %s\n", strings.Join(parts, " "))
	}
	fmt.Fprintf(w, "  ops: %d attempted, %d failed (error_rate %.4g), peak RSS %.1f MB\n",
		r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)), r.peakRSS)
	for _, f := range r.failures {
		fmt.Fprintln(w, "  FAIL", f)
	}
}
