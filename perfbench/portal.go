package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/accesslog"
	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/groups"
	"repro/internal/pathmodel"
	"repro/internal/relation"
	"repro/internal/store"
)

// Portal-ingest replay shape: up to replayRows day-7 rows, ingested in
// batches of ingestBatch rows, with portalPerBatch portal requests from one
// closed-loop client after each batch.
const (
	replayRows     = 2400
	ingestBatch    = 20
	portalPerBatch = 20
)

// portalIngest is the patient portal beside a live log: a store holding
// days 1-6 with Groups trained on them, into which day-7 rows are ingested
// while a client asks for patients' access reports.
type portalIngest struct {
	pristine string             // the days 1-6 store each round starts from
	work     string             // the store a round appends to
	prefix   int                // rows in the pristine store's Log
	replay   [][]relation.Value // the day-7 rows to ingest
	// patients holds the patient of every days 1-6 access, so a uniform draw
	// picks a patient in proportion to their accesses: each access prompts
	// its patient to look. Across seeds this mix is steadier than a uniform
	// draw over patients, whose median history length moves in whole steps.
	patients []relation.Value
	// pairs and first hold the last traced round's explained templates per
	// ingested row, and the row index of the first ingested row.
	pairs [][]string
	first int
	last  *core.Auditor
}

func (w *portalIngest) setup(r *run) error {
	end := r.tr.span("ehr.generate")
	ds := ehr.Generate(r.cfg)
	end()
	end = r.tr.span("accesslog.split_days")
	log := ds.Log()
	prefix := accesslog.FilterDays(log, 0, r.cfg.Days-2)
	day7 := accesslog.FilterDays(log, r.cfg.Days-1, r.cfg.Days-1)
	end()
	n := min(replayRows, day7.NumRows()) / ingestBatch * ingestBatch
	w.replay = make([][]relation.Value, n)
	for i := range w.replay {
		w.replay[i] = day7.Row(i)
	}
	end = r.tr.span("groups.train")
	h := groups.Train(prefix, core.DefaultGroupsMaxDepth)
	end()
	db := accesslog.WithLog(ds.DB, prefix)
	db.AddTable(h.Table(core.DefaultGroupsTable))
	w.pristine = filepath.Join(r.dir, "portal-store")
	w.work = filepath.Join(r.dir, "portal-work")
	end = r.tr.span("store.create")
	_, err := store.Create(w.pristine, db)
	end()
	if err != nil {
		return err
	}
	end = r.tr.span("store.open")
	_, opened, err := store.Open(w.pristine)
	end()
	if err != nil {
		return err
	}
	a := newAuditor(opened)
	end = r.tr.span("core.build_masks")
	err = a.Refresh(r.ctx, r.workers)
	end()
	if err != nil {
		return err
	}
	openedLog := opened.MustTable(pathmodel.LogTable)
	w.prefix = openedLog.NumRows()
	w.patients = w.patients[:0]
	for i := range w.prefix {
		w.patients = append(w.patients, openedLog.Get(i, pathmodel.LogPatientColumn))
	}
	if len(w.replay) == 0 || len(w.patients) == 0 {
		return fmt.Errorf("portal-ingest: %d replay rows, %d patients", len(w.replay), len(w.patients))
	}
	return nil
}

func (w *portalIngest) round(r *run) error {
	end := r.tr.span("bench.reset_store")
	err := copyDir(w.work, w.pristine)
	end()
	if err != nil {
		return err
	}
	end = r.tr.span("store.open")
	s, db, err := store.Open(w.work)
	end()
	if err != nil {
		return err
	}
	end = r.tr.span("core.new_auditor")
	a := newAuditor(db)
	end()
	end = r.tr.span("core.build_masks")
	err = a.Refresh(r.ctx, r.workers)
	end()
	if err != nil {
		return err
	}
	log := db.MustTable(pathmodel.LogTable)
	rng := rand.New(rand.NewSource(r.seed))
	ingested := newSink(false)
	portal := newSink(false)
	if r.tr.on {
		ingested.pairs = make([][]string, 0, len(w.replay))
	}
	for b := 0; b < len(w.replay); b += ingestBatch {
		err := w.ingest(r, s, a, log, w.replay[b:b+ingestBatch], ingested)
		r.op("ingest batch", err)
		if err != nil {
			return err
		}
		for q := 0; q < portalPerBatch; q++ {
			w.request(r, a, w.patients[rng.Intn(len(w.patients))], portal)
		}
	}
	r.count("core.reports", float64(ingested.reports+portal.reports))
	r.count("core.explained", float64(ingested.explained+portal.explained))
	r.count("explain.explanations", float64(ingested.explanations+portal.explanations))
	addSnapshot(r.counters, a.Evaluator().Metrics().Snapshot(), engineCounters)
	w.verify(r, a, db)
	if r.tr.on {
		w.pairs, w.first, w.last = ingested.pairs, w.prefix, a
	}
	return nil
}

// ingest appends one batch of log rows, makes it durable, refreshes the
// masks and encodes each new row's report, and samples the batch latency.
func (w *portalIngest) ingest(r *run, s *store.Store, a *core.Auditor, log *relation.Table, rows [][]relation.Value, out *sink) error {
	defer r.tr.span("ingest")()
	t0 := time.Now()
	lo := log.NumRows()
	end := r.tr.span("relation.append")
	for _, row := range rows {
		log.Append(row...)
	}
	end()
	if r.tr.on {
		// Traced runs build the patient index here, where Append dropped it,
		// so the rebuild the next portal request would pay gets its own span.
		end = r.tr.span("relation.index_rebuild")
		log.Index(pathmodel.LogPatientColumn)
		end()
	}
	end = r.tr.span("store.append")
	err := s.AppendRows(pathmodel.LogTable, rows)
	end()
	if err != nil {
		return err
	}
	end = r.tr.span("core.refresh")
	err = a.Refresh(r.ctx, r.workers)
	end()
	if err != nil {
		return err
	}
	end = r.tr.span("core.explain_row")
	for row := lo; row < log.NumRows(); row++ {
		if err := out.write(a.ExplainRow(row, 0)); err != nil {
			end()
			return err
		}
	}
	end()
	r.sample("ingest_ms", ms(time.Since(t0)))
	return nil
}

// request serves one portal request: the patient's access report, encoded.
func (w *portalIngest) request(r *run, a *core.Auditor, patient relation.Value, out *sink) {
	defer r.tr.span("portal")()
	t0 := time.Now()
	end := r.tr.span("core.patient_report")
	reps := a.PatientReport(patient, 1)
	end()
	end = r.tr.span("bench.encode")
	var err error
	for _, rep := range reps {
		if err = out.write(rep); err != nil {
			break
		}
	}
	end()
	r.sample("portal_ms", ms(time.Since(t0)))
	if err == nil && len(reps) == 0 {
		err = fmt.Errorf("no accesses for patient %v, drawn from patients with accesses", patient)
	}
	r.op("portal request", err)
}

// verify checks the replay's outputs: the refreshed auditor explains as many
// rows as a cold rebuild over the final log, and reopening the store shows
// every acknowledged append.
func (w *portalIngest) verify(r *run, a *core.Auditor, db *relation.Database) {
	defer r.tr.span("bench.verify")()
	want := w.prefix + len(w.replay)
	refreshed, err := a.UnexplainedRows(r.ctx, r.workers)
	if err != nil {
		r.fail(fmt.Sprintf("check failed: refreshed unexplained rows: %v", err))
		return
	}
	cold, err := newAuditor(db).UnexplainedRows(r.ctx, r.workers)
	if err != nil {
		r.fail(fmt.Sprintf("check failed: cold unexplained rows: %v", err))
		return
	}
	r.check(slices.Equal(refreshed, cold), "refreshed auditor leaves %d rows unexplained, cold rebuild %d",
		len(refreshed), len(cold))
	_, reopened, err := store.Open(w.work)
	if err != nil {
		r.fail(fmt.Sprintf("check failed: reopen store: %v", err))
		return
	}
	got := reopened.MustTable(pathmodel.LogTable).NumRows()
	r.check(got == want, "reopened store holds %d log rows, want %d", got, want)
	r.count("core.unexplained", float64(len(refreshed)))
}

// tracedPass renders every explained (row, template) pair of the rows the
// last traced round ingested.
func (w *portalIngest) tracedPass(r *run) error {
	if w.last == nil || w.pairs == nil {
		return fmt.Errorf("traced render pass: no traced round")
	}
	return renderPass(r, w.last, w.pairs, w.first)
}

func (w *portalIngest) endToEnd(r *run) (float64, float64) {
	batches := r.samples["ingest_ms"]
	return median(r.samples["portal_ms"]), float64(ingestBatch*len(batches)) / (sum(batches) / 1000)
}
