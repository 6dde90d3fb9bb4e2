package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/accesslog"
	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/groups"
	"repro/internal/mine"
	"repro/internal/pathmodel"
	"repro/internal/query"
	"repro/internal/relation"
)

// mineAlgorithms are the miners of the paper's Figure 13, in its order.
var mineAlgorithms = []string{
	mine.AlgoOneWay, mine.AlgoTwoWay,
	mine.AlgoBridge(2), mine.AlgoBridge(3), mine.AlgoBridge(4),
}

// mineBench is the administrator's flow, the paper's Figure 13: mine the
// first accesses of the training window (days 1-6) with every algorithm at
// s=1%, M=5, T=3.
type mineBench struct {
	db      *relation.Database // training-window Log, event tables, Groups
	audited *relation.Table    // the training window's first accesses
	want    []string           // canonical keys of the run's first mined set
}

func (w *mineBench) setup(r *run) error {
	end := r.tr.span("ehr.generate")
	ds := ehr.Generate(r.cfg)
	end()
	end = r.tr.span("accesslog.training_window")
	train := accesslog.FilterDays(ds.Log(), 0, r.cfg.Days-2)
	audited := accesslog.FirstAccesses(train)
	end()
	end = r.tr.span("groups.train")
	h := groups.Train(train, core.DefaultGroupsMaxDepth)
	end()
	ds.DB.AddTable(h.Table(core.DefaultGroupsTable))
	w.db = accesslog.WithLog(ds.DB, train)
	w.audited = audited
	w.want = nil
	return nil
}

// fresh returns copies of the mining tables with empty index caches, so
// every algorithm pays for its own index builds, as a separate `ebaudit
// mine -algo` process would.
func (w *mineBench) fresh() (*relation.Database, *relation.Table) {
	db := relation.NewDatabase()
	for _, n := range w.db.TableNames() {
		db.AddTable(w.db.Table(n).Clone(n))
	}
	return db, w.audited.Clone(pathmodel.LogTable)
}

// timedOracle times the support oracle's two operations for the per-layer
// query metrics. The miner calls it from one goroutine.
type timedOracle struct {
	mine.Oracle
	eval, estimate time.Duration
	paths          int
}

func (o *timedOracle) EstimateSupport(p pathmodel.Path) int {
	t0 := time.Now()
	n := o.Oracle.EstimateSupport(p)
	o.estimate += time.Since(t0)
	return n
}

func (o *timedOracle) EvalSupports(paths []pathmodel.Path, workers int) []int {
	t0 := time.Now()
	out := o.Oracle.EvalSupports(paths, workers)
	o.eval += time.Since(t0)
	o.paths += len(paths)
	return out
}

func (w *mineBench) round(r *run) error {
	opt := mine.DefaultOptions()
	opt.Parallelism = r.workers
	var roundTime, oracleTime time.Duration
	runs := 0
	for _, algo := range mineAlgorithms {
		collectGarbage(r)
		end := r.tr.span("relation.fresh_tables")
		db, audited := w.fresh()
		end()
		ev := query.NewEvaluatorWithLog(db, audited)
		var o mine.Oracle = mine.EvaluatorOracle(ev)
		var timed *timedOracle
		if r.tr.on {
			timed = &timedOracle{Oracle: o}
			o = timed
		}
		t0 := time.Now()
		end = r.tr.span("mine." + algo)
		res, err := mine.RunWith(algo, o, schemaGraph(), opt)
		end()
		d := time.Since(t0)
		r.op("mine "+algo, err)
		if err != nil {
			continue
		}
		roundTime += d
		runs++
		r.sample("mine.algorithm_ms", ms(d))
		if timed != nil {
			oracleTime += timed.eval + timed.estimate
			r.count("query.eval_supports_s", timed.eval.Seconds())
			r.count("query.estimate_s", timed.estimate.Seconds())
			r.count("query.support_paths", float64(timed.paths))
		}
		st := res.Stats
		r.count("mine.candidates", float64(st.CandidatesGenerated))
		r.count("mine.support_queries", float64(st.SupportQueries))
		r.count("mine.cache_hits", float64(st.CacheHits))
		r.count("mine.skipped", float64(st.Skipped))
		r.count("mine.templates", float64(len(res.Templates)))
		addSnapshot(r.counters, ev.Metrics().Snapshot(), engineCounters)

		keys := make([]string, len(res.Templates))
		for i, p := range res.Templates {
			keys[i] = p.CanonicalKey()
		}
		slices.Sort(keys)
		if w.want == nil {
			w.want = keys
		}
		r.check(slices.Equal(keys, w.want), "%s mined %d templates, not the %d canonical templates of %s",
			algo, len(keys), len(w.want), mineAlgorithms[0])
	}
	r.sample("mine_s", roundTime.Seconds())
	if runs > 0 {
		r.sample("mine.run_ms", ms(roundTime)/float64(runs))
	}
	if r.tr.on {
		r.count("mine.self_s", (roundTime - oracleTime).Seconds())
	}
	if len(w.want) == 0 {
		return fmt.Errorf("mining found no templates")
	}
	return nil
}

// endToEnd reports the median over rounds of the round's mean run time.
// The algorithms' times fall in two groups (three near 1.17 s and two near
// 1.35 s on a 2-vCPU VM), so the median of the pooled runs sat in the upper
// tail of the faster group and moved with it; a round's mean weighs every
// algorithm once.
func (w *mineBench) endToEnd(r *run) (float64, float64) {
	runs := r.samples["mine.algorithm_ms"]
	return median(r.samples["mine.run_ms"]), float64(w.audited.NumRows()*len(runs)) / (sum(runs) / 1000)
}
