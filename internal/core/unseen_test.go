package core_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/pathmodel"
	"repro/internal/relation"
)

// TestRefreshWithUnseenValues is the incremental differential for values
// the database's dictionary has never seen. Two appends, each followed by
// Refresh at j ∈ {1, 4}:
//
//   - log rows whose patient and user occur nowhere in the database, so
//     their codes are interned after every code the cached pair indexes
//     cover, mixed with rows pairing a new patient with a known user and a
//     known patient with a new user;
//   - an Appointments row that introduces a new join value (one of the new
//     patients, booked with a known doctor), which makes the new rows of
//     that patient explainable.
//
// After each, the refreshed reports must equal a cold rebuild's, and every
// path template must explain exactly the rows the index-free SupportScan
// counts.
func TestRefreshWithUnseenValues(t *testing.T) {
	ctx := context.Background()
	for _, par := range []int{1, 4} {
		cfg := ehr.Tiny()
		cfg.Seed = 1
		ds := ehr.Generate(cfg)
		n := ds.DB.MustTable(pathmodel.LogTable).NumRows()
		db, full := truncatedDB(ds, n)
		a := core.NewAuditor(db, ehr.SchemaGraph(ehr.DefaultGraphOptions()), core.WithNamer(ds))
		a.BuildGroups(core.GroupsOptions{})
		a.AddTemplates(explain.Handcrafted(true, true).All()...)
		explainAll(t, a, par)
		before := db.Dict().Len()

		log := db.MustTable(pathmodel.LogTable)
		last := full.Row(n - 1)
		li, _ := log.ColumnIndex(pathmodel.LogIDColumn)
		di, _ := log.ColumnIndex(pathmodel.LogDateColumn)
		ui, _ := log.ColumnIndex(pathmodel.LogUserColumn)
		pi, _ := log.ColumnIndex(pathmodel.LogPatientColumn)
		lid := last[li].AsInt()
		appendAccess := func(user, patient relation.Value) {
			lid++
			row := make([]relation.Value, len(log.Columns()))
			row[li], row[di], row[ui], row[pi] = relation.Int(lid), last[di], user, patient
			log.Append(row...)
		}
		knownUser, knownPatient := last[ui], last[pi]
		newPatient, newUser := relation.Int(990001), relation.Int(990002)
		appendAccess(newUser, newPatient)
		appendAccess(knownUser, newPatient)
		appendAccess(newUser, knownPatient)

		checkAgainstOracles(t, ctx, a, db, ds, par, "unseen log values")
		if c, ok := db.Dict().Code(newPatient); !ok || int(c) < before {
			t.Errorf("par %d: new patient coded %d (ok=%v), want a code past the %d pre-append values", par, c, ok, before)
		}

		// Book the new patient with the doctor of a known appointment: a new
		// value in an event table's join column.
		appt := db.MustTable(ehr.TableAppointments)
		booked := append([]relation.Value(nil), appt.Row(0)...)
		booked[0] = newPatient
		appt.Append(booked...)
		doctorUser := appointmentUser(t, db, booked)
		appendAccess(doctorUser, newPatient)
		checkAgainstOracles(t, ctx, a, db, ds, par, "event-table append")
		if reps := explainAll(t, a, par); !reps[len(reps)-1].Explained() {
			t.Errorf("par %d: access by the booked doctor to the new patient is unexplained", par)
		}
	}
}

// appointmentUser returns the audit id of the doctor on an Appointments row
// (appointments record caregiver ids; UserMapping translates them).
func appointmentUser(t *testing.T, db *relation.Database, appt []relation.Value) relation.Value {
	t.Helper()
	m := db.MustTable(ehr.TableUserMapping)
	ci, _ := m.ColumnIndex("CaregiverID")
	ai, _ := m.ColumnIndex("AuditID")
	for r := 0; r < m.NumRows(); r++ {
		if m.Row(r)[ci] == appt[2] {
			return m.Row(r)[ai]
		}
	}
	t.Fatalf("no audit id for caregiver %v", appt[2])
	return relation.Null()
}

// checkAgainstOracles refreshes a, then compares its reports with a cold
// rebuild over the same database and each path template's explained-row
// count with SupportScan.
func checkAgainstOracles(t *testing.T, ctx context.Context, a *core.Auditor, db *relation.Database, ds *ehr.Dataset, par int, stage string) {
	t.Helper()
	if err := a.Refresh(ctx, par); err != nil {
		t.Fatalf("%s, par %d: Refresh: %v", stage, par, err)
	}
	got := explainAll(t, a, par)
	b := core.NewAuditor(db, ehr.SchemaGraph(ehr.DefaultGraphOptions()), core.WithNamer(ds))
	b.AddTemplates(a.Templates()...)
	if want := explainAll(t, b, par); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s, par %d: refreshed reports differ from a cold rebuild", stage, par)
	}
	explainedBy := map[string]int{}
	for _, rep := range got {
		seen := map[string]bool{}
		for _, e := range rep.Explanations {
			if !seen[e.Template] {
				seen[e.Template] = true
				explainedBy[e.Template]++
			}
		}
	}
	for _, tpl := range a.Templates() {
		pt, ok := tpl.(*explain.PathTemplate)
		if !ok {
			continue
		}
		if want := a.Evaluator().SupportScan(pt.Path); explainedBy[pt.Name()] != want {
			t.Errorf("%s, par %d, %s: %d rows explained, SupportScan = %d",
				stage, par, pt.Name(), explainedBy[pt.Name()], want)
		}
	}
}
