package core_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/explain"
)

// buildSeededAuditor builds a fully configured auditor (groups plus the
// complete hand-crafted catalog) over a Tiny hospital generated with the
// given seed.
func buildSeededAuditor(t testing.TB, seed int64) *core.Auditor {
	t.Helper()
	cfg := ehr.Tiny()
	cfg.Seed = seed
	ds := ehr.Generate(cfg)
	a := core.NewAuditor(ds.DB, ehr.SchemaGraph(ehr.DefaultGraphOptions()), core.WithNamer(ds))
	a.BuildGroups(core.GroupsOptions{})
	a.AddTemplates(explain.Handcrafted(true, true).All()...)
	return a
}

// oracleAudit is the mask cache's independent oracle: every template's
// explained rows come from one full EvaluateRange(ev.Clone(), 0, n) — no
// mask cache, no sharding, no extension — and are ORed row by row. It
// returns the unexplained rows (ascending), the explained fraction, and the
// per-template masks.
func oracleAudit(a *core.Auditor) (unexplained []int, fraction float64, masks [][]bool) {
	n := a.Evaluator().Log().NumRows()
	for _, tpl := range a.Templates() {
		masks = append(masks, tpl.EvaluateRange(a.Evaluator().Clone(), 0, n))
	}
	for r := 0; r < n; r++ {
		explained := false
		for _, m := range masks {
			explained = explained || m[r]
		}
		if !explained {
			unexplained = append(unexplained, r)
		}
	}
	if n > 0 {
		fraction = float64(n-len(unexplained)) / float64(n)
	}
	return unexplained, fraction, masks
}

// checkReportsAgainstOracle asserts that reports (one per log row) explain
// exactly the rows the oracle masks cover, and only through templates whose
// oracle mask covers the row.
func checkReportsAgainstOracle(t *testing.T, label string, a *core.Auditor, reports []core.AccessReport) {
	t.Helper()
	_, _, masks := oracleAudit(a)
	index := map[string]int{}
	for i, tpl := range a.Templates() {
		index[tpl.Name()] = i
	}
	for r, rep := range reports {
		explained := false
		for _, m := range masks {
			explained = explained || m[r]
		}
		if rep.Explained() != explained {
			t.Fatalf("%s: row %d explained = %v, oracle says %v", label, r, rep.Explained(), explained)
		}
		for _, e := range rep.Explanations {
			if !masks[index[e.Template]][r] {
				t.Fatalf("%s: row %d explained by %s, whose oracle mask does not cover it", label, r, e.Template)
			}
		}
	}
}

// explainAll, unexplainedRows, and explainedFraction run the batch calls on
// a background context and fail the test on error.
func explainAll(t testing.TB, a *core.Auditor, par int) []core.AccessReport {
	t.Helper()
	reps, err := a.ExplainAll(context.Background(), par)
	if err != nil {
		t.Fatalf("ExplainAll(j=%d): %v", par, err)
	}
	return reps
}

func unexplainedRows(t testing.TB, a *core.Auditor, par int) []int {
	t.Helper()
	rows, err := a.UnexplainedRows(context.Background(), par)
	if err != nil {
		t.Fatalf("UnexplainedRows(j=%d): %v", par, err)
	}
	return rows
}

func explainedFraction(t testing.TB, a *core.Auditor, par int) float64 {
	t.Helper()
	frac, err := a.ExplainedFraction(context.Background(), par)
	if err != nil {
		t.Fatalf("ExplainedFraction(j=%d): %v", par, err)
	}
	return frac
}

// TestExplainAllMatchesSequential is the batch engine's differential oracle:
// on three differently seeded datasets, ExplainAll at every parallelism
// level must produce reports byte-for-byte identical to an ExplainRow loop
// (whose explained rows must match the oracle masks), and UnexplainedRows
// and ExplainedFraction must match the oracle exactly.
func TestExplainAllMatchesSequential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		a := buildSeededAuditor(t, seed)
		n := a.Evaluator().Log().NumRows()
		if n == 0 {
			t.Fatalf("seed %d: empty log", seed)
		}

		want := make([]core.AccessReport, n)
		for r := 0; r < n; r++ {
			want[r] = a.ExplainRow(r, 0)
		}
		checkReportsAgainstOracle(t, "ExplainRow loop", a, want)
		wantUnexplained, wantFraction, _ := oracleAudit(a)

		for _, par := range []int{1, 2, 4, 8} {
			got := explainAll(t, a, par)
			if !reflect.DeepEqual(got, want) {
				for r := range want {
					if !reflect.DeepEqual(got[r], want[r]) {
						t.Fatalf("seed %d parallelism %d: report for row %d differs:\n got %+v\nwant %+v",
							seed, par, r, got[r], want[r])
					}
				}
				t.Fatalf("seed %d parallelism %d: reports differ", seed, par)
			}
			if gotU := unexplainedRows(t, a, par); !reflect.DeepEqual(gotU, wantUnexplained) {
				t.Errorf("seed %d parallelism %d: UnexplainedRows = %v, want %v",
					seed, par, gotU, wantUnexplained)
			}
			if gotF := explainedFraction(t, a, par); gotF != wantFraction {
				t.Errorf("seed %d parallelism %d: ExplainedFraction = %v, want %v",
					seed, par, gotF, wantFraction)
			}
		}
	}
}

// TestExplainAllColdMasks runs the batch path on a freshly configured
// auditor whose mask cache is empty, so the concurrent mask computation
// (rather than only the per-row sharding) is exercised, then checks the
// result against the oracle masks and against a second, identically seeded
// auditor queried row by row.
func TestExplainAllColdMasks(t *testing.T) {
	batch := buildSeededAuditor(t, 7)
	seq := buildSeededAuditor(t, 7)

	got := explainAll(t, batch, 4)
	n := seq.Evaluator().Log().NumRows()
	if len(got) != n {
		t.Fatalf("ExplainAll returned %d reports, want %d", len(got), n)
	}
	checkReportsAgainstOracle(t, "cold ExplainAll", seq, got)
	for r := 0; r < n; r++ {
		want := seq.ExplainRow(r, 0)
		if !reflect.DeepEqual(got[r], want) {
			t.Fatalf("row %d: batch report %+v != sequential %+v", r, got[r], want)
		}
	}
}

// TestExplainAllCancelled: a pre-cancelled context fails every batch call
// with context.Canceled and no results, not a partially filled slice.
func TestExplainAllCancelled(t *testing.T) {
	a := buildSeededAuditor(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got, err := a.ExplainAll(ctx, 4); got != nil || !errors.Is(err, context.Canceled) {
		t.Errorf("ExplainAll with cancelled ctx = %d reports, err %v; want nil, context.Canceled", len(got), err)
	}
	if got, err := a.UnexplainedRows(ctx, 4); got != nil || !errors.Is(err, context.Canceled) {
		t.Errorf("UnexplainedRows with cancelled ctx = %v, err %v; want nil, context.Canceled", got, err)
	}
	if got, err := a.ExplainedFraction(ctx, 4); got != 0 || !errors.Is(err, context.Canceled) {
		t.Errorf("ExplainedFraction with cancelled ctx = %v, err %v; want 0, context.Canceled", got, err)
	}
}

// TestExplainAllSharedAuditorRace exercises the advertised concurrency
// contract under the race detector: several goroutines run the batch
// methods at parallelism 8 over one shared Auditor — starting from a cold
// mask cache so concurrent mask computation and lazy table-index
// construction race against each other — and every run must agree with the
// row-by-row baseline and the oracle.
func TestExplainAllSharedAuditorRace(t *testing.T) {
	a := buildSeededAuditor(t, 5)
	baseline := buildSeededAuditor(t, 5)
	n := baseline.Evaluator().Log().NumRows()
	want := make([]core.AccessReport, n)
	for r := 0; r < n; r++ {
		want[r] = baseline.ExplainRow(r, 0)
	}
	wantUnexplained, wantFraction, _ := oracleAudit(baseline)

	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := a.ExplainAll(ctx, 8); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("concurrent ExplainAll diverged from the row-by-row baseline (err %v)", err)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := a.UnexplainedRows(ctx, 8); err != nil || !reflect.DeepEqual(got, wantUnexplained) {
				t.Errorf("concurrent UnexplainedRows diverged from the oracle (err %v)", err)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := a.ExplainedFraction(ctx, 8); err != nil || got != wantFraction {
				t.Errorf("concurrent ExplainedFraction = %v (err %v), want %v", got, err, wantFraction)
			}
		}()
	}
	wg.Wait()
}
