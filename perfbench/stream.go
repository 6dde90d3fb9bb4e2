package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/federate"
	"repro/internal/groups"
	"repro/internal/pathmodel"
	"repro/internal/store"
)

// Starts per stream-audit round. Time to first report is pooled over every
// start of the run, so these set its sample count.
const (
	coldStarts = 6
	warmStarts = 2
	fedShards  = 4
)

// streamAudit is the compliance officer's flow, `ebaudit -store DIR audit
// -stream`: starts of a segment store holding the generated log, the
// trained Groups and a warm snapshot, then full NDJSON streams through one
// engine and through a K=4 federation.
type streamAudit struct {
	dir   string // the store
	rows  int
	first []byte // the first report's NDJSON line, from the run's first start
	warm  *core.Auditor
	// pairs holds, per log row, the templates that explained it in the last
	// traced single-engine stream; the traced render pass replays them.
	pairs [][]string
}

// workers leaves one CPU to the goroutine that consumes the stream: the
// NDJSON sink runs beside the engine's workers, so nproc workers and the
// sink would oversubscribe the CPUs and the stream's rate would measure the
// scheduler more than the program.
func (w *streamAudit) workers(nproc int) int { return max(1, nproc-1) }

func (w *streamAudit) setup(r *run) error {
	end := r.tr.span("ehr.generate")
	ds := ehr.Generate(r.cfg)
	end()
	end = r.tr.span("groups.train")
	h := groups.Train(ds.Log(), core.DefaultGroupsMaxDepth)
	ds.DB.AddTable(h.Table(core.DefaultGroupsTable))
	end()
	w.dir = filepath.Join(r.dir, "stream-store")
	end = r.tr.span("store.create")
	_, err := store.Create(w.dir, ds.DB)
	end()
	if err != nil {
		return err
	}
	// The snapshot is captured against the reopened database, as ebaudit
	// does, so its schema stamp matches every later open.
	end = r.tr.span("store.open")
	s, db, err := store.Open(w.dir)
	end()
	if err != nil {
		return err
	}
	a := newAuditor(db)
	end = r.tr.span("core.build_masks")
	err = a.Refresh(r.ctx, r.workers)
	end()
	if err != nil {
		return err
	}
	end = r.tr.span("store.save_warm")
	err = s.SaveWarmState(db, a.CaptureWarmState())
	end()
	w.rows = db.MustTable(pathmodel.LogTable).NumRows()
	return err
}

func (w *streamAudit) round(r *run) error {
	for i := 0; i < coldStarts; i++ {
		w.start(r, false)
	}
	for i := 0; i < warmStarts; i++ {
		w.start(r, true)
	}
	if w.warm == nil {
		return errors.New("no warm start succeeded")
	}
	single, d := w.stream(r)
	if fd := w.federated(r, single, d); d > 0 && fd > 0 {
		r.sample("streams.rows", float64(2*w.rows))
		r.sample("streams.s", (d + fd).Seconds())
	}
	return nil
}

// start opens the store, configures an auditor and waits for the first
// report, cold or with the warm snapshot installed. It keeps the last warm
// auditor for the single-engine stream.
func (w *streamAudit) start(r *run, warm bool) {
	kind := "cold"
	if warm {
		kind = "warm"
	}
	defer r.tr.span("start." + kind)()
	collectGarbage(r)
	err := func() error {
		t0 := time.Now()
		end := r.tr.span("store.open")
		s, db, err := store.Open(w.dir)
		end()
		if err != nil {
			return err
		}
		end = r.tr.span("core.new_auditor")
		a := newAuditor(db)
		end()
		firstSpan := "core.first_report"
		if warm {
			firstSpan = "core.first_report_warm"
			end = r.tr.span("store.load_warm")
			ws, err := s.LoadWarmState(db)
			end()
			if err != nil {
				return err
			}
			end = r.tr.span("core.install_warm")
			masks, _ := a.InstallWarmState(ws)
			end()
			r.check(masks == len(a.Templates()), "warm start installed %d of %d masks", masks, len(a.Templates()))
		}
		end = r.tr.span(firstSpan)
		line, err := firstReport(r, a)
		end()
		if err != nil {
			return err
		}
		r.sample("ttfr_"+kind+"_ms", ms(time.Since(t0)))
		if w.first == nil {
			w.first = line
		}
		r.check(string(line) == string(w.first), "%s start's first report differs from the run's first", kind)
		addSnapshot(r.counters, a.Evaluator().Metrics().Snapshot(), engineCounters)
		if warm {
			w.warm = a
		}
		return nil
	}()
	r.op(kind+" start", err)
}

var errFirstReport = errors.New("first report received")

// firstReport streams until the first report and returns its NDJSON line.
func firstReport(r *run, a *core.Auditor) ([]byte, error) {
	var line []byte
	err := a.StreamReports(r.ctx, r.workers, func(rep core.AccessReport) error {
		b, err := json.Marshal(toNDJSON(rep))
		if err != nil {
			return err
		}
		line = b
		return errFirstReport
	})
	if errors.Is(err, errFirstReport) {
		err = nil
	}
	return line, err
}

// stream audits the whole log through the last warm-started auditor into an
// NDJSON digest, as `audit -stream` does over a store with a snapshot.
func (w *streamAudit) stream(r *run) (*sink, time.Duration) {
	defer r.tr.span("stream.single")()
	out := newSink(r.tr.on)
	if r.tr.on {
		out.pairs = make([][]string, 0, w.rows)
	}
	a := w.warm
	w.warm = nil
	collectGarbage(r)
	// The start already counted this auditor's registry; count the stream's
	// share only.
	before := a.Evaluator().Metrics().Snapshot()
	t0 := time.Now()
	end := r.tr.span("core.stream")
	err := a.StreamReports(r.ctx, r.workers, out.write)
	end()
	d := time.Since(t0)
	r.op("single-engine stream", err)
	if err != nil {
		return nil, 0
	}
	r.check(out.reports == w.rows, "single-engine stream emitted %d of %d reports", out.reports, w.rows)
	r.sample("audit_rows_per_s", float64(out.reports)/d.Seconds())
	if r.tr.on {
		r.sample("core.sink_ms", ms(out.busy))
		r.sample("core.stream_wait_ms", ms(d-out.busy))
		w.pairs = out.pairs
		w.warm = a
	}
	r.count("core.reports", float64(out.reports))
	r.count("core.explained", float64(out.explained))
	r.count("explain.explanations", float64(out.explanations))
	after := a.Evaluator().Metrics().Snapshot()
	for _, n := range engineCounters {
		r.count(n, counterValue(after[n])-counterValue(before[n]))
	}
	return out, d
}

// federated audits the same log through a K=4 federate.Split over a freshly
// opened store, as `audit -stream -shards 4` does, checks that its NDJSON is
// byte-identical to the single engine's, and returns the time from split to
// the last report (0 on failure).
func (w *streamAudit) federated(r *run, single *sink, singleTime time.Duration) (d time.Duration) {
	defer r.tr.span("stream.federated")()
	err := func() error {
		end := r.tr.span("store.open")
		_, db, err := store.Open(w.dir)
		end()
		if err != nil {
			return err
		}
		collectGarbage(r)
		t0 := time.Now()
		end = r.tr.span("federate.split")
		fed, err := federate.Split(db, schemaGraph(), fedShards, nil)
		if err == nil {
			fed.AddTemplates(catalog()...)
		}
		end()
		if err != nil {
			return err
		}
		out := newSink(false)
		t1 := time.Now()
		end = r.tr.span("federate.stream")
		err = fed.StreamReports(r.ctx, r.workers, out.write)
		end()
		if err != nil {
			return err
		}
		d = time.Since(t0)
		r.sample("fed_rows_per_s", float64(out.reports)/d.Seconds())
		if single != nil {
			r.sample("federate.overhead_ratio", time.Since(t1).Seconds()/singleTime.Seconds())
			r.check(out.digest() == single.digest(), "federated NDJSON differs from single-engine NDJSON")
		}
		addSnapshot(r.counters, fed.MetricsSnapshot(), engineCounters)
		return nil
	}()
	r.op("federated stream", err)
	if err != nil {
		return 0
	}
	return d
}

// tracedPass renders every explained (row, template) pair of the last
// traced stream on the warm auditor's cursor, timing each Render call by
// template: the explain layer's share of the stream.
func (w *streamAudit) tracedPass(r *run) error {
	if w.warm == nil || w.pairs == nil {
		return errors.New("traced render pass: no traced stream")
	}
	return renderPass(r, w.warm, w.pairs, 0)
}

// renderPass calls Template.Render for every (row, template) pair in pairs,
// pairs[i] belonging to log row first+i, and records explain.render_ms,
// explain.render_group_share and explain.renders.
func renderPass(r *run, a *core.Auditor, pairs [][]string, first int) error {
	defer r.tr.span("render_pass")()
	byName := map[string]explain.Template{}
	for _, t := range a.Templates() {
		byName[t.Name()] = t
	}
	ev := a.Evaluator()
	var total, group time.Duration
	renders := 0
	for i, names := range pairs {
		for _, n := range names {
			t, ok := byName[n]
			if !ok {
				return fmt.Errorf("traced render pass: unknown template %q", n)
			}
			t0 := time.Now()
			texts := t.Render(ev, first+i, 3, explain.NullNamer{})
			d := time.Since(t0)
			total += d
			if strings.HasSuffix(n, "-same-group") {
				group += d
			}
			renders++
			if len(texts) == 0 {
				r.fail(fmt.Sprintf("check failed: template %s rendered nothing for row %d it explains", n, first+i))
			}
		}
	}
	r.sample("explain.render_ms", ms(total))
	if total > 0 {
		r.sample("explain.render_group_share", float64(group)/float64(total))
	}
	r.sample("explain.renders", float64(renders))
	return nil
}

func (w *streamAudit) endToEnd(r *run) (float64, float64) {
	return median(r.samples["ttfr_cold_ms"]), sum(r.samples["streams.rows"]) / sum(r.samples["streams.s"])
}
