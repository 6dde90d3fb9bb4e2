package core_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/fault"
	"repro/internal/federate"
	"repro/internal/pathmodel"
	"repro/internal/relation"
)

// TestStreamReportsMatchesExplainAll is the streaming pipeline's
// differential oracle: on three differently seeded datasets and at every
// parallelism level, the streamed report sequence must be byte-for-byte
// identical — order and content — to the materialized ExplainAll slice and
// to an ExplainRow loop, whose explained rows must match the oracle masks.
func TestStreamReportsMatchesExplainAll(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{1, 2, 3} {
		a := buildSeededAuditor(t, seed)
		n := a.Evaluator().Log().NumRows()
		want := make([]core.AccessReport, n)
		for r := 0; r < n; r++ {
			want[r] = a.ExplainRow(r, 0)
		}
		checkReportsAgainstOracle(t, "ExplainRow loop", a, want)
		for _, par := range []int{1, 2, 4, 8} {
			got := make([]core.AccessReport, 0, n)
			if err := a.StreamReports(ctx, par, func(rep core.AccessReport) error {
				got = append(got, rep)
				return nil
			}); err != nil {
				t.Fatalf("seed %d parallelism %d: StreamReports err = %v", seed, par, err)
			}
			if !reflect.DeepEqual(got, want) {
				for r := range want {
					if !reflect.DeepEqual(got[r], want[r]) {
						t.Fatalf("seed %d parallelism %d: streamed report %d differs:\n got %+v\nwant %+v",
							seed, par, r, got[r], want[r])
					}
				}
				t.Fatalf("seed %d parallelism %d: streamed reports differ", seed, par)
			}
			if mat := explainAll(t, a, par); !reflect.DeepEqual(mat, got) {
				t.Fatalf("seed %d parallelism %d: ExplainAll differs from its own stream", seed, par)
			}
		}
	}
}

// TestStreamReportsConsumerError: an error returned by fn aborts the stream
// immediately and is returned verbatim; fn has seen a clean prefix.
func TestStreamReportsConsumerError(t *testing.T) {
	a := buildSeededAuditor(t, 1)
	want := explainAll(t, a, 4)
	boom := errors.New("sink failed")
	var got []core.AccessReport
	err := a.StreamReports(context.Background(), 4, func(rep core.AccessReport) error {
		got = append(got, rep)
		if len(got) == 7 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("StreamReports err = %v, want sink error", err)
	}
	if len(got) != 7 || !reflect.DeepEqual(got, want[:7]) {
		t.Fatalf("consumer saw %d reports (prefix equal: %v), want the first 7",
			len(got), reflect.DeepEqual(got, want[:len(got)]))
	}
}

// TestStreamReportsCancelPrompt cancels the context from inside the consumer
// after the first report: the stream must stop within a couple of chunks —
// workers poll ctx between claimed shards — rather than draining the rest of
// the log, and StreamReports must return ctx.Err().
func TestStreamReportsCancelPrompt(t *testing.T) {
	a := buildSeededAuditor(t, 1)
	n := a.Evaluator().Log().NumRows()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	err := a.StreamReports(ctx, 4, func(core.AccessReport) error {
		seen++
		if seen == 1 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("StreamReports err = %v, want context.Canceled", err)
	}
	// The emitter finishes the chunk it is delivering, then stops; anything
	// close to the full log means cancellation was ignored.
	if seen > 2*64 || seen >= n {
		t.Errorf("consumer saw %d of %d reports after cancellation", seen, n)
	}
}

// emptyLogDB builds a database whose Log (and event tables) exist but hold
// zero rows — the smallest configuration where an unguarded
// explained/total division would produce NaN.
func emptyLogDB() *relation.Database {
	db := relation.NewDatabase()
	db.AddTable(relation.NewTable("Log", "Lid", "Date", "User", "Patient"))
	db.AddTable(relation.NewTable("Appointments", "Patient", "Date", "Doctor"))
	db.AddTable(relation.NewTable("UserMapping", "CaregiverID", "AuditID"))
	return db
}

// emptyLogTemplate is the one real catalog template the empty-log cases
// register.
func emptyLogTemplate() explain.Template {
	return explain.WithDrTemplate("appt-with-dr", "Appointments", "an appointment")
}

// TestExplainedFractionEmptyLog is the regression test for the empty-log
// division: on an empty log, with one template and with none, the fraction
// must be (0, nil) — never NaN — on both an Auditor and a Federation, and
// the other batch methods must degrade cleanly.
func TestExplainedFractionEmptyLog(t *testing.T) {
	ctx := context.Background()
	graph := ehr.SchemaGraph(ehr.DefaultGraphOptions())
	for _, withTemplate := range []bool{true, false} {
		a := core.NewAuditor(emptyLogDB(), graph)
		fed, err := federate.Split(emptyLogDB(), graph, 2, nil, federate.WithoutGroups())
		if err != nil {
			t.Fatal(err)
		}
		if withTemplate {
			a.AddTemplates(emptyLogTemplate())
			fed.AddTemplates(emptyLogTemplate())
		}
		for _, par := range []int{1, 4} {
			if f, err := a.ExplainedFraction(ctx, par); err != nil || f != 0 || math.IsNaN(f) {
				t.Errorf("templates=%v: ExplainedFraction(%d) on empty log = %v, %v; want 0, nil", withTemplate, par, f, err)
			}
			if f, err := fed.ExplainedFraction(ctx, par); err != nil || f != 0 || math.IsNaN(f) {
				t.Errorf("templates=%v: federated ExplainedFraction(%d) on empty log = %v, %v; want 0, nil", withTemplate, par, f, err)
			}
		}
		if got := explainAll(t, a, 4); got == nil || len(got) != 0 {
			t.Errorf("templates=%v: ExplainAll on empty log = %v, want empty non-nil slice", withTemplate, got)
		}
		if got := unexplainedRows(t, a, 4); len(got) != 0 {
			t.Errorf("templates=%v: UnexplainedRows on empty log = %v, want none", withTemplate, got)
		}
		if err := a.StreamReports(ctx, 4, func(core.AccessReport) error {
			t.Error("report emitted for empty log")
			return nil
		}); err != nil {
			t.Errorf("templates=%v: StreamReports on empty log err = %v", withTemplate, err)
		}
	}
}

// TestMaskFaultSeamOnBatchCallsOnly pins where the core.mask.ensure chaos
// seam fires: with a permanent fault armed there, ExplainRow and
// PatientReport — which build their masks without the seam — return the
// same reports as an unfaulted auditor, while every batch call fails with
// an error wrapping the injected fault instead of an empty result.
func TestMaskFaultSeamOnBatchCallsOnly(t *testing.T) {
	t.Cleanup(fault.Reset)
	ctx := context.Background()
	clean := buildSeededAuditor(t, 1)
	n := clean.Evaluator().Log().NumRows()
	patient := clean.Evaluator().Log().Get(0, pathmodel.LogPatientColumn)
	want := make([]core.AccessReport, n)
	for r := range want {
		want[r] = clean.ExplainRow(r, 0)
	}
	wantPatient := clean.PatientReport(patient, 1)

	rule := fault.Permanent("core.mask.ensure")
	fault.Install(rule)
	a := buildSeededAuditor(t, 1) // cold masks: the single-row calls must build them
	for r := range want {
		if got := a.ExplainRow(r, 0); !reflect.DeepEqual(got, want[r]) {
			t.Fatalf("faulted ExplainRow(%d) = %+v, want %+v", r, got, want[r])
		}
	}
	if got := a.PatientReport(patient, 1); !reflect.DeepEqual(got, wantPatient) {
		t.Fatalf("faulted PatientReport differs from the unfaulted one")
	}
	if fault.Default.Injected() != 0 {
		t.Fatalf("single-row calls fired the seam %d times, want 0", fault.Default.Injected())
	}

	checkErr := func(call string, err error) {
		t.Helper()
		if !errors.Is(err, rule.Err) || !errors.Is(err, fault.ErrInjected) {
			t.Errorf("faulted %s err = %v, want the injected fault", call, err)
		}
	}
	rows, err := a.UnexplainedRows(ctx, 4)
	checkErr("UnexplainedRows", err)
	if rows != nil {
		t.Errorf("faulted UnexplainedRows returned %d rows, want none", len(rows))
	}
	frac, err := a.ExplainedFraction(ctx, 4)
	checkErr("ExplainedFraction", err)
	if frac != 0 {
		t.Errorf("faulted ExplainedFraction = %v, want 0", frac)
	}
	reps, err := a.ExplainAll(ctx, 4)
	checkErr("ExplainAll", err)
	if reps != nil {
		t.Errorf("faulted ExplainAll returned %d reports, want none", len(reps))
	}
	checkErr("Refresh", a.Refresh(ctx, 4))
}
