package query_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/groups"
	"repro/internal/pathmodel"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/schemagraph"
)

// lazyOraclePair returns two independent engines over the same database:
// one with the planner on (the default) and one evaluating declared-order
// plans — the plan-level differential oracle. The index-free SupportScan is
// the plan-free one.
func lazyOraclePair(db *relation.Database) (lazy, declared *query.Evaluator) {
	lazy = query.NewEvaluator(db)
	declared = query.NewEvaluator(db)
	declared.SetPlannerEnabled(false)
	return lazy, declared
}

// TestLazyDifferentialCatalog is the evaluator's acceptance differential: on
// three differently seeded hospitals, every template of the full
// hand-crafted catalog must evaluate byte-identically over planned and over
// declared-order plans — supports, full masks, and masks sharded across
// j ∈ {1, 4} concurrent workers — with the index-free SupportScan as the
// plan-free oracle. It also asserts both engines actually consumed
// postings, so the comparison is not vacuous.
func TestLazyDifferentialCatalog(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg := ehr.Tiny()
		cfg.Seed = seed
		ds := ehr.Generate(cfg)
		h := groups.BuildHierarchy(groups.BuildUserGraph(ds.Log()), 8)
		ds.DB.AddTable(h.Table("Groups"))
		lazy, mat := lazyOraclePair(ds.DB)

		for _, tpl := range explain.Handcrafted(true, true).All() {
			pt, ok := tpl.(*explain.PathTemplate)
			if !ok {
				continue // the decorated repeat-access template has no simple path
			}
			pLazy, pMat := lazy.Prepare(pt.Path), mat.Prepare(pt.Path)

			if got, want := pLazy.Support(), pMat.Support(); got != want {
				t.Errorf("seed %d, %s: planned Support = %d, declared order = %d", seed, pt.Name(), got, want)
			}
			if got, want := pLazy.Support(), lazy.SupportScan(pt.Path); got != want {
				t.Errorf("seed %d, %s: lazy Support = %d, SupportScan = %d", seed, pt.Name(), got, want)
			}

			var want []bool
			if pMat.Closed() {
				want = pMat.ExplainedRows()
			} else {
				want = pMat.ConnectedRows()
			}
			for _, j := range []int{1, 4} {
				got := shardedRows(t, lazy, pLazy, j)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d, %s, j=%d: planned mask differs from declared order",
						seed, pt.Name(), j)
				}
			}
		}
		if lazy.PostingsScanned() == 0 || mat.PostingsScanned() == 0 {
			t.Errorf("seed %d: postings consumed planned %d, declared %d — differential is vacuous",
				seed, lazy.PostingsScanned(), mat.PostingsScanned())
		}
	}
}

// TestLazyDifferentialRandomPaths drives the property over random structure:
// three seeds, each seeding a stream of random databases and random path
// walks (the fuzz corpus machinery). Planned and declared-order evaluation
// must agree on support and on the full row mask, with SupportScan agreeing
// too.
func TestLazyDifferentialRandomPaths(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		r := rand.New(rand.NewSource(seed))
		paths := 0
		for trial := 0; trial < 60; trial++ {
			data := make([]byte, 64)
			r.Read(data)
			fb := &fuzzBytes{data: data}
			db := fuzzDB(fb)
			p, ok := fuzzPath(fb)
			if !ok {
				continue
			}
			paths++
			lazy, mat := lazyOraclePair(db)

			sLazy, sMat := lazy.Support(p), mat.Support(p)
			if sLazy != sMat {
				t.Fatalf("seed %d trial %d path %q: planned Support = %d, declared order = %d",
					seed, trial, p.String(), sLazy, sMat)
			}
			if scan := lazy.SupportScan(p); scan != sLazy {
				t.Fatalf("seed %d trial %d path %q: Support = %d, SupportScan = %d",
					seed, trial, p.String(), sLazy, scan)
			}
			var mLazy, mMat []bool
			if p.Closed() {
				mLazy, mMat = lazy.ExplainedRows(p), mat.ExplainedRows(p)
			} else {
				mLazy, mMat = lazy.ConnectedRows(p), mat.ConnectedRows(p)
			}
			if !reflect.DeepEqual(mLazy, mMat) {
				t.Fatalf("seed %d trial %d path %q: planned mask differs from declared order",
					seed, trial, p.String())
			}
		}
		if paths < 20 {
			t.Fatalf("seed %d: only %d random paths exercised", seed, paths)
		}
	}
}

// fanoutDB builds the early-termination fixture: one audited access, whose
// patient has one matching appointment (doctor 100, the accessing user)
// buried under `extra` non-matching ones, every doctor translating through
// the identity-shaped bridge M into a distinct audit id.
func fanoutDB(extra int) *relation.Database {
	db := relation.NewDatabase()
	log := relation.NewTable("Log", "Lid", "Date", "User", "Patient")
	log.Append(relation.Int(0), relation.Int(1), relation.Int(1100), relation.Int(1))
	db.AddTable(log)

	a := relation.NewTable("A", "P", "D")
	m := relation.NewTable("M", "F", "T")
	a.Append(relation.Int(1), relation.Int(100))
	m.Append(relation.Int(100), relation.Int(1100))
	for i := 0; i < extra; i++ {
		d := relation.Int(int64(101 + i))
		a.Append(relation.Int(1), d)
		m.Append(d, relation.Int(int64(1101+i)))
	}
	db.AddTable(a)
	db.AddTable(m)
	return db
}

// fanoutPath is Start -> A.P, A.D -> End via M over fanoutDB.
func fanoutPath(t *testing.T) pathmodel.Path {
	t.Helper()
	bridge := &schemagraph.Bridge{Table: "M", FromColumn: "F", ToColumn: "T"}
	return mustPath(t,
		schemagraph.Edge{From: pathmodel.StartAttr(), To: attr("A", "P"), Kind: schemagraph.KeyFK},
		schemagraph.Edge{From: attr("A", "D"), To: pathmodel.EndAttr(), Kind: schemagraph.KeyFK, Via: bridge},
	)
}

// TestInstancesLimitBoundsPostings pins the short-circuit contract: with the
// single matching appointment sorting first among 4000 candidates,
// Instances(limit=1) must stop after a handful of postings, while the
// unlimited enumeration of the same row consumes the whole fanout. (The
// planner is disabled so the hop fanout survives into the executed chain —
// pruning would otherwise shrink the pair lists before enumeration.)
func TestInstancesLimitBoundsPostings(t *testing.T) {
	const extra = 4000
	db := fanoutDB(extra)
	p := fanoutPath(t)

	ev := query.NewEvaluator(db)
	ev.SetPlannerEnabled(false)
	got := ev.Instances(p, 0, 1)
	if len(got) != 1 {
		t.Fatalf("Instances(limit=1) returned %d bindings, want 1", len(got))
	}
	if scanned := ev.PostingsScanned(); scanned > 16 {
		t.Errorf("Instances(limit=1) consumed %d postings over a %d-wide hop, want a small constant",
			scanned, extra+1)
	}

	all := query.NewEvaluator(db)
	all.SetPlannerEnabled(false)
	if n := len(all.Instances(p, 0, extra+10)); n != 1 {
		t.Fatalf("exhaustive Instances returned %d bindings, want 1", n)
	}
	if scanned := all.PostingsScanned(); scanned <= extra {
		t.Errorf("exhaustive Instances consumed only %d postings, want > %d — fixture lost its fanout",
			scanned, extra)
	}
}

// endSideDB builds a closed-path fixture with 300 distinct start values all
// funneling into 3 doctors (and 3 audit ids): the shape whose end boundary
// is far smaller than its start boundary, so the planner should choose
// end-side propagation.
func endSideDB() *relation.Database {
	db := relation.NewDatabase()
	log := relation.NewTable("Log", "Lid", "Date", "User", "Patient")
	for i := 0; i < 40; i++ {
		user := int64(100 + i%4) // ids 100..102 resolve, 103 never does
		log.Append(relation.Int(int64(i)), relation.Int(1), relation.Int(user), relation.Int(int64(i%50)))
	}
	db.AddTable(log)

	a := relation.NewTable("A", "P", "D")
	for p := 0; p < 300; p++ {
		a.Append(relation.Int(int64(p)), relation.Int(int64(10+p%3)))
	}
	db.AddTable(a)

	m := relation.NewTable("M", "F", "T")
	for d := 0; d < 3; d++ {
		m.Append(relation.Int(int64(10+d)), relation.Int(int64(100+d)))
	}
	db.AddTable(m)
	return db
}

// TestLazyEndSidePropagation pins the cost-based propagation choice: on the
// many-starts/few-ends chain the planner reports the boundary sizes backward
// pruning computed, chooses end-side execution, and the walk over the
// reversed chain still classifies every row exactly like the start-side
// declared-order plan, and counts exactly what SupportScan counts.
func TestLazyEndSidePropagation(t *testing.T) {
	db := endSideDB()
	bridge := &schemagraph.Bridge{Table: "M", FromColumn: "F", ToColumn: "T"}
	p := mustPath(t,
		schemagraph.Edge{From: pathmodel.StartAttr(), To: attr("A", "P"), Kind: schemagraph.KeyFK},
		schemagraph.Edge{From: attr("A", "D"), To: pathmodel.EndAttr(), Kind: schemagraph.KeyFK, Via: bridge},
	)

	lazy, mat := lazyOraclePair(db)
	pLazy, pMat := lazy.Prepare(p), mat.Prepare(p)

	info := pLazy.PlanInfo()
	if !info.EndSide {
		t.Fatalf("planner kept start-side propagation: %+v", info)
	}
	if info.BoundaryStart != 300 || info.BoundaryEnd != 3 {
		t.Errorf("boundaries = %d -> %d, want 300 -> 3", info.BoundaryStart, info.BoundaryEnd)
	}
	if st := lazy.PlanCacheStats(); st.PlanEndSide != 1 {
		t.Errorf("PlanEndSide = %d, want 1", st.PlanEndSide)
	}

	if pMat.PlanInfo().EndSide {
		t.Fatal("declared-order plan chose a side")
	}
	want := pMat.ExplainedRows()
	if got := pLazy.ExplainedRows(); !reflect.DeepEqual(got, want) {
		t.Error("end-side mask differs from the start-side declared-order plan")
	}
	if got, wantS := pLazy.Support(), pMat.Support(); got != wantS {
		t.Errorf("end-side Support = %d, declared order = %d", got, wantS)
	}
	if got, wantS := pLazy.Support(), lazy.SupportScan(p); got != wantS {
		t.Errorf("end-side Support = %d, SupportScan = %d", got, wantS)
	}
	if lazy.PostingsScanned() == 0 {
		t.Error("end-side evaluation consumed no postings")
	}
}
