// Quickstart: generate a synthetic hospital, build an auditor with the
// hand-crafted explanation templates, and explain a single access — the
// minimal end-to-end tour of the library.
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"

	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/explain"
)

func main() {
	// 1. Generate a small synthetic hospital: an access log plus the event
	//    tables that explain it (appointments, visits, documents, orders).
	ds := ehr.Generate(ehr.Tiny())
	fmt.Printf("generated %d accesses over %d days\n", ds.Log().NumRows(), ds.Config.Days)

	// 2. Build the auditor over the database and the schema's join-edge
	//    catalog, and infer collaborative groups from the log (Section 4 of
	//    the paper): nurses access their team's patients even though only
	//    the doctor appears in the Appointments table.
	auditor := core.NewAuditor(ds.DB, ehr.SchemaGraph(ehr.DefaultGraphOptions()), core.WithNamer(ds))
	hierarchy := auditor.BuildGroups(core.GroupsOptions{})
	fmt.Printf("clustered users into %d top-level collaborative groups\n", hierarchy.NumGroupsAt(1))

	// 3. Register the hand-crafted explanation templates.
	auditor.AddTemplates(explain.Handcrafted(true, true).All()...)

	// 4. Explain the first few accesses.
	shown := 0
	for row := 0; row < ds.Log().NumRows() && shown < 5; row++ {
		rep := auditor.ExplainRow(row, 1)
		if !rep.Explained() {
			continue
		}
		shown++
		fmt.Printf("\nL%d on %s: %s accessed %s's record\n  because %s\n",
			rep.Lid, rep.Date, rep.UserName, ds.PatientName(rep.Patient),
			rep.Explanations[0].Text)
	}

	// 5. The headline: how much of the log do the templates explain?
	frac, err := auditor.ExplainedFraction(context.Background(), runtime.GOMAXPROCS(0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntemplates explain %.1f%% of all accesses (the paper reports over 94%%)\n", 100*frac)
	if frac < 0.5 {
		log.Fatal("quickstart: unexpectedly low explained fraction")
	}
}
