package query_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/groups"
	"repro/internal/obs"
	"repro/internal/pathmodel"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/schemagraph"
)

// catalogHospital generates the hospital at the given scale and seed with
// its collaborative groups installed, and returns it with the catalog's
// path templates.
func catalogHospital(cfg ehr.Config, seed int64) (*relation.Database, []*explain.PathTemplate) {
	cfg.Seed = seed
	ds := ehr.Generate(cfg)
	h := groups.BuildHierarchy(groups.BuildUserGraph(ds.Log()), 8)
	ds.DB.AddTable(h.Table("Groups"))
	var paths []*explain.PathTemplate
	for _, tpl := range explain.Handcrafted(true, true).All() {
		if pt, ok := tpl.(*explain.PathTemplate); ok {
			paths = append(paths, pt)
		}
	}
	return ds.DB, paths
}

// mask evaluates a prepared path over every audited row.
func mask(pp *query.Prepared) []bool {
	if pp.Closed() {
		return pp.ExplainedRows()
	}
	return pp.ConnectedRows()
}

// TestCrossKindJoinMatchesScan joins across values that differ only in
// kind: patient 5 is the integer 5, while the event table also holds the
// date 5, the string "5" and NULL, each paired with a different user. A
// dictionary that conflated kinds would explain accesses the scan oracle
// does not.
func TestCrossKindJoinMatchesScan(t *testing.T) {
	log := relation.NewTable(pathmodel.LogTable,
		pathmodel.LogIDColumn, pathmodel.LogDateColumn, pathmodel.LogUserColumn, pathmodel.LogPatientColumn)
	users := []int64{100, 101, 102, 103}
	for i, u := range users {
		log.Append(relation.Int(int64(i)), relation.Date(1), relation.Int(u), relation.Int(5))
		log.Append(relation.Int(int64(10+i)), relation.Date(1), relation.Int(u), relation.Null())
	}
	a := relation.NewTable("A", "P", "D")
	for i, p := range []relation.Value{relation.Int(5), relation.Date(5), relation.String("5"), relation.Null()} {
		a.Append(p, relation.Int(users[i]))
	}
	db := relation.NewDatabase()
	db.AddTable(log)
	db.AddTable(a)
	p := mustPath(t,
		schemagraph.Edge{From: pathmodel.StartAttr(), To: attr("A", "P"), Kind: schemagraph.KeyFK},
		schemagraph.Edge{From: attr("A", "D"), To: pathmodel.EndAttr(), Kind: schemagraph.KeyFK},
	)
	for _, planner := range []bool{true, false} {
		ev := query.NewEvaluator(db)
		ev.SetPlannerEnabled(planner)
		got, want := ev.Support(p), ev.SupportScan(p)
		if got != want || want != 2 {
			t.Errorf("planner %v: Support = %d, SupportScan = %d, want both 2 (Int(5)->100, NULL->103)",
				planner, got, want)
		}
	}
}

// TestDictDeterministicAcrossBuilds builds the same hospital twice and
// evaluates the catalog on each: the two dictionaries must assign the same
// code to every value, every coded pair index must be the same arrays, and
// the evaluations must consume the same postings.
func TestDictDeterministicAcrossBuilds(t *testing.T) {
	type build struct {
		db       *relation.Database
		values   []relation.Value
		postings int
	}
	builds := make([]build, 2)
	for i := range builds {
		db, paths := catalogHospital(ehr.Tiny(), 1)
		ev := query.NewEvaluator(db)
		for _, pt := range paths {
			pp := ev.Prepare(pt.Path)
			pp.Support()
			mask(pp)
		}
		d := db.Dict()
		b := build{db: db, postings: ev.PostingsScanned()}
		for c := 0; c < d.Len(); c++ {
			b.values = append(b.values, d.Value(uint32(c)))
		}
		builds[i] = b
	}
	a, b := builds[0], builds[1]
	if !reflect.DeepEqual(a.values, b.values) {
		t.Fatal("two builds at one seed assigned different codes")
	}
	if a.postings != b.postings || a.postings == 0 {
		t.Errorf("PostingsScanned = %d vs %d, want equal and nonzero", a.postings, b.postings)
	}
	for _, name := range a.db.TableNames() {
		ta, tb := a.db.Table(name), b.db.Table(name)
		for _, from := range ta.Columns() {
			for _, to := range ta.Columns() {
				ca, _ := ta.CodedPairs(a.db.Dict(), from, to)
				cb, _ := tb.CodedPairs(b.db.Dict(), from, to)
				if !reflect.DeepEqual(ca, cb) {
					t.Errorf("%s(%s -> %s): CSR differs between builds", name, from, to)
				}
			}
		}
	}
}

// TestConcurrentPrepareOnSharedDict prepares distinct catalog paths
// concurrently in the two ways engines share a dictionary — cloned cursors
// on one engine, and four shard engines over one database, each auditing a
// slice of its log — and requires every result to equal a sequential
// evaluation on a separately built copy. Run it under -race -count=10.
func TestConcurrentPrepareOnSharedDict(t *testing.T) {
	refDB, paths := catalogHospital(ehr.Tiny(), 2)
	ref := query.NewEvaluator(refDB)
	wantMask := make([][]bool, len(paths))
	wantSupport := make([]int, len(paths))
	for i, pt := range paths {
		pp := ref.Prepare(pt.Path)
		wantSupport[i], wantMask[i] = pp.Support(), mask(pp)
	}

	t.Run("cloned cursors", func(t *testing.T) {
		db, _ := catalogHospital(ehr.Tiny(), 2)
		ev := query.NewEvaluator(db)
		const workers = 6
		gotMask := make([][]bool, len(paths))
		gotSupport := make([]int, len(paths))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(cur *query.Evaluator) {
				defer wg.Done()
				for i := w; i < len(paths); i += workers {
					pp := cur.Prepare(paths[i].Path)
					gotSupport[i], gotMask[i] = pp.Support(), mask(pp)
				}
			}(ev.Clone())
		}
		wg.Wait()
		if !reflect.DeepEqual(gotSupport, wantSupport) || !reflect.DeepEqual(gotMask, wantMask) {
			t.Error("concurrent cursors disagree with the sequential evaluation")
		}
	})

	t.Run("shard engines", func(t *testing.T) {
		db, _ := catalogHospital(ehr.Tiny(), 2)
		log := db.MustTable(pathmodel.LogTable)
		const k = 4
		n := log.NumRows()
		gotMask := make([][]bool, len(paths))
		for i := range gotMask {
			gotMask[i] = make([]bool, n)
		}
		supports := make([][]int, k)
		shards := make([]*query.Evaluator, k)
		for s := range shards {
			rows := make([]int, 0, n/k+1)
			for r := n * s / k; r < n*(s+1)/k; r++ {
				rows = append(rows, r)
			}
			shards[s] = query.NewEvaluatorWithLog(db, log.Select(pathmodel.LogTable, rows))
			supports[s] = make([]int, len(paths))
		}
		var wg sync.WaitGroup
		for s, ev := range shards {
			wg.Add(1)
			go func() {
				defer wg.Done()
				lo := n * s / k
				// Each shard walks the catalog from a different offset, so
				// the shards prepare distinct paths at the same time.
				for j := range paths {
					i := (j + s*len(paths)/k) % len(paths)
					pp := ev.Prepare(paths[i].Path)
					supports[s][i] = pp.Support()
					copy(gotMask[i][lo:], mask(pp))
				}
			}()
		}
		wg.Wait()
		for i, pt := range paths {
			total := 0
			for s := range shards {
				total += supports[s][i]
			}
			if total != wantSupport[i] {
				t.Errorf("%s: shard supports sum to %d, want %d", pt.Name(), total, wantSupport[i])
			}
			if !reflect.DeepEqual(gotMask[i], wantMask[i]) {
				t.Errorf("%s: concatenated shard masks differ from the single engine", pt.Name())
			}
		}
		for s, ev := range shards {
			if got, want := ev.PlanCacheStats().DictValues, int64(db.Dict().Len()); got != want {
				t.Errorf("shard %d sees %d dictionary values, the database holds %d", s, got, want)
			}
		}
	})
}

// TestWarmRangeAllocsConstant pins the per-call cost of a warm evaluation:
// a single-row ExplainedRange and a 20-row one (the shape of an ingest
// Refresh) allocate only the output mask on the Tiny and on the Small
// hospital, whose dictionaries differ several-fold — so the pooled memos
// are reused, never reallocated or sized per call to the dictionary.
func TestWarmRangeAllocsConstant(t *testing.T) {
	const bound = 1 // the output mask
	for _, scale := range []struct {
		name string
		cfg  ehr.Config
	}{{"tiny", ehr.Tiny()}, {"small", ehr.Small()}} {
		db, paths := catalogHospital(scale.cfg, 1)
		ev := query.NewEvaluator(db)
		for _, pt := range paths {
			pp := ev.Prepare(pt.Path)
			if !pp.Closed() {
				continue
			}
			n := ev.Log().NumRows()
			pp.ExplainedRows() // warm the coded indexes and the memo free list
			for _, width := range []int{1, 20} {
				lo := n / 2
				allocs := testing.AllocsPerRun(50, func() { pp.ExplainedRange(lo, lo+width) })
				if allocs > bound {
					t.Errorf("%s, %s, %d rows: %.1f allocs per warm ExplainedRange, want <= %d",
						scale.name, pt.Name(), width, allocs, bound)
				}
			}
		}
		t.Logf("%s: dictionary of %d values", scale.name, db.Dict().Len())
	}
}

// TestCodedIndexMetrics pins the index layer's observability: the engine's
// registry reports the dictionary's size and counts the coded indexes its
// compilations built (a second engine over the same database finds them
// all cached), and build latency is recorded only while obs is enabled.
func TestCodedIndexMetrics(t *testing.T) {
	db, paths := catalogHospital(ehr.Tiny(), 1)
	ev := query.NewEvaluator(db)
	for _, pt := range paths {
		ev.Prepare(pt.Path)
	}
	reg := ev.Metrics()
	values := int64(db.Dict().Len())
	if got := reg.Gauge("query.dict.values").Value(); got != values {
		t.Errorf("query.dict.values = %d, want %d", got, values)
	}
	builds := reg.Counter("query.index.builds").Value()
	if builds == 0 {
		t.Error("query.index.builds = 0 after compiling the catalog")
	}
	if st := ev.PlanCacheStats(); st.IndexBuilds != builds || st.DictValues != values {
		t.Errorf("PlanCacheStats = %d builds / %d values, want %d / %d", st.IndexBuilds, st.DictValues, builds, values)
	}
	if n := reg.Histogram("query.index.build_nanos").Count(); n != 0 {
		t.Errorf("build latency observed %d times with obs disabled", n)
	}

	again := query.NewEvaluator(db)
	for _, pt := range paths {
		again.Prepare(pt.Path)
	}
	if got := again.PlanCacheStats().IndexBuilds; got != 0 {
		t.Errorf("second engine over the same database built %d indexes, want 0", got)
	}

	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	fresh, _ := catalogHospital(ehr.Tiny(), 1)
	timed := query.NewEvaluator(fresh)
	for _, pt := range paths {
		timed.Prepare(pt.Path)
	}
	treg := timed.Metrics()
	if got, want := treg.Histogram("query.index.build_nanos").Count(), treg.Counter("query.index.builds").Value(); got != want || got == 0 {
		t.Errorf("obs enabled: %d build latencies for %d builds", got, want)
	}
}
